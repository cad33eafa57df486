package scenario

import (
	"time"

	"voiceguard/internal/parallel"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/stats"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// RecognitionResult is the Table I experiment output: per-spike
// classification of command-phase (positive) versus response-phase
// (negative) spikes, for the phase-aware recognizer and the naive
// any-spike-is-a-command baseline.
type RecognitionResult struct {
	Invocations int
	Spikes      int
	Confusion   stats.Confusion // phase-aware recognizer
	Naive       stats.Confusion // naive spike detector (ablation)
}

// TrafficRecognition reproduces Table I: generate invocations on an
// Echo Dot (with the natural anomaly rate), classify every spike, and
// tally confusion matrices. Each spike is classified by the guard's own
// streaming recognizer (classifyEchoSpike). The paper activates the
// speaker 134 times.
//
// Generation is serial — the generator consumes one RNG stream, so
// its draw order is part of the seeded record — but classification is
// pure per spike and fans out across the parallel worker pool. The
// tally order (and therefore the result) matches a serial run.
func TrafficRecognition(invocations int, seed int64) RecognitionResult {
	src := rng.New(seed)
	echo := trafficgen.NewEcho(src.Split("traffic"))
	res := RecognitionResult{Invocations: invocations}

	at := time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)
	respSrc := src.Split("responses")
	var spikes []trafficgen.LabeledSpike
	for i := 0; i < invocations; i++ {
		inv := echo.Invocation(at, responseSpikes(respSrc))
		spikes = append(spikes, inv.Spikes...)
		at = at.Add(time.Duration(src.Uniform(60, 600)) * time.Second)
	}

	tr := trace.New(0)
	type verdict struct {
		actual, predicted bool
	}
	verdicts := parallel.Map(len(spikes), func(i int) verdict {
		return verdict{
			actual:    spikes[i].Phase == trafficgen.PhaseCommand,
			predicted: classifyEchoSpike(tr, spikes[i].Packets) == recognize.ActionCommand,
		}
	})
	for _, v := range verdicts {
		res.Spikes++
		res.Confusion.Add(v.actual, v.predicted)
		// The naive baseline calls every spike a command.
		res.Naive.Add(v.actual, true)
	}
	return res
}

// classifyEchoSpike runs one labelled spike through the guard's
// streaming Echo recognizer, pinned to the spike's server, and returns
// how the spike was settled: ActionCommand, ActionRelease, or, for a
// spike with no packets left, ActionNone. A spike still undecided when
// its packets run out is ended as the guard's idle timer would end it.
// The recognizer's marker events go to tr, not to trace.Default,
// which belongs to the guards.
func classifyEchoSpike(tr *trace.Tracer, packets []pcap.Packet) recognize.Action {
	if len(packets) == 0 {
		return recognize.ActionNone
	}
	rec := recognize.NewEcho(trafficgen.EchoAddr)
	rec.Tracer = tr
	rec.Tracker.ForceAddress(packets[0].DstIP)
	for i := range packets {
		if a := rec.Feed(&packets[i]); a == recognize.ActionCommand || a == recognize.ActionRelease {
			return a
		}
	}
	return rec.EndSpike()
}
