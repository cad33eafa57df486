package scenario

import (
	"time"

	"voiceguard/internal/netem"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/stats"
	"voiceguard/internal/trafficgen"
)

// ImpairmentPoint is the recognizer's performance at one capture-loss
// level.
type ImpairmentPoint struct {
	Config    netem.Config
	Confusion stats.Confusion
}

// RecognitionUnderImpairment measures how the phase classifier
// degrades when the guard's passive capture loses, duplicates, or
// reorders packets (this study is not in the paper; it probes the
// deployment assumption that the capture point sees traffic
// faithfully). Every spike of every invocation is impaired
// independently and what survived is classified as Table I classifies
// it.
func RecognitionUnderImpairment(invocations int, configs []netem.Config, seed int64) []ImpairmentPoint {
	points := make([]ImpairmentPoint, len(configs))
	rec := newSpikeRecognizer()
	for ci, cfg := range configs {
		points[ci].Config = cfg
		src := rng.New(seed).SplitN("impair", ci)
		echo := trafficgen.NewEcho(src.Split("traffic"))
		echo.AnomalyRate = 0
		at := time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)
		for i := 0; i < invocations; i++ {
			inv := echo.Invocation(at, responseSpikes(src))
			for _, s := range inv.Spikes {
				// A spike lost whole is never classified, so a command
				// slips through unexamined.
				impaired := netem.Apply(s.Packets, cfg, src.SplitN("pkt", i))
				predicted := classifyEchoSpike(rec, impaired) == recognize.ActionCommand
				points[ci].Confusion.Add(s.Phase == trafficgen.PhaseCommand, predicted)
			}
			at = at.Add(time.Duration(src.Uniform(60, 300)) * time.Second)
		}
	}
	return points
}
