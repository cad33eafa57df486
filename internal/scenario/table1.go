package scenario

import (
	"time"

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
// The generator consumes one RNG stream, so its draw order is part of
// the seeded record; each spike is classified as it is generated, by
// one recognizer reset between spikes.
func TrafficRecognition(invocations int, seed int64) RecognitionResult {
	src := rng.New(seed)
	echo := trafficgen.NewEcho(src.Split("traffic"))
	res := RecognitionResult{Invocations: invocations}
	rec := newSpikeRecognizer()

	at := time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)
	respSrc := src.Split("responses")
	var inv trafficgen.Invocation
	for i := 0; i < invocations; i++ {
		echo.FillInvocation(&inv, at, responseSpikes(respSrc))
		for _, s := range inv.Spikes {
			actual := s.Phase == trafficgen.PhaseCommand
			res.Spikes++
			res.Confusion.Add(actual, classifyEchoSpike(rec, s.Packets) == recognize.ActionCommand)
			// The naive baseline calls every spike a command.
			res.Naive.Add(actual, true)
		}
		at = at.Add(time.Duration(src.Uniform(60, 600)) * time.Second)
	}
	return res
}

// newSpikeRecognizer returns the streaming Echo recognizer
// classifyEchoSpike runs. Its marker events go to a tracer of its own,
// not to trace.Default, which belongs to the guards.
func newSpikeRecognizer() *recognize.Recognizer {
	rec := recognize.NewEcho(trafficgen.EchoAddr)
	rec.Tracer = trace.New(0)
	return rec
}

// classifyEchoSpike runs one labelled spike through rec, reset and
// pinned to the spike's server, and returns how the spike was settled:
// ActionCommand, ActionRelease, or, for a spike with no packets left,
// ActionNone. A spike still undecided when its packets run out is
// ended as the guard's idle timer would end it.
func classifyEchoSpike(rec *recognize.Recognizer, packets []pcap.Packet) recognize.Action {
	if len(packets) == 0 {
		return recognize.ActionNone
	}
	rec.Reset()
	rec.Tracker.ForceAddress(packets[0].DstIP)
	for i := range packets {
		if a := rec.Feed(&packets[i]); a == recognize.ActionCommand || a == recognize.ActionRelease {
			return a
		}
	}
	return rec.EndSpike()
}
