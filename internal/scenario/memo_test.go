package scenario

import (
	"testing"

	"voiceguard/internal/decision"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/metrics"
)

// TestReplayedHomeHitsMemos checks the memo counters on
// metrics.Default: replaying a home (same seed, same plan pointer)
// rebuilds every path with the same contents, so the trace-mean memo
// serves each trace and its hit counter moves without a miss.
func TestReplayedHomeHitsMemos(t *testing.T) {
	read := func(name string) int64 { return metrics.Default.Counter(name).Value() }
	cfg := Config{Plan: floorplan.House(), Spot: "A", Speaker: Echo, Devices: twoPhones(), Days: 1, Seed: 31}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	hits, misses := read(decision.MetricTraceMeanHits), read(decision.MetricTraceMeanMisses)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	h, mi := read(decision.MetricTraceMeanHits)-hits, read(decision.MetricTraceMeanMisses)-misses
	t.Logf("replay: %s +%d, %s +%d", decision.MetricTraceMeanHits, h, decision.MetricTraceMeanMisses, mi)
	if h == 0 {
		t.Errorf("replay never hit: %s did not move", decision.MetricTraceMeanHits)
	}
	if mi != 0 {
		t.Errorf("replay missed: %s +%d", decision.MetricTraceMeanMisses, mi)
	}
}
