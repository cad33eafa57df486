package scenario

import (
	"testing"

	"voiceguard/internal/decision"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/metrics"
	"voiceguard/internal/mobility"
)

// TestReplayedHomeHitsMemos checks the memo counters on
// metrics.Default: replaying a home (same seed, same plan pointer) is
// served by the trace-mean, route and wander memos, so each memo's hit
// counter moves and none of them misses on the replay.
func TestReplayedHomeHitsMemos(t *testing.T) {
	memos := []struct{ hits, misses string }{
		{decision.MetricTraceMeanHits, decision.MetricTraceMeanMisses},
		{mobility.MetricRouteHits, mobility.MetricRouteMisses},
		{mobility.MetricWanderHits, mobility.MetricWanderMisses},
	}
	read := func(name string) int64 { return metrics.Default.Counter(name).Value() }
	cfg := Config{Plan: floorplan.House(), Spot: "A", Speaker: Echo, Devices: twoPhones(), Days: 1, Seed: 31}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	hits := make([]int64, len(memos))
	misses := make([]int64, len(memos))
	for i, m := range memos {
		hits[i], misses[i] = read(m.hits), read(m.misses)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for i, m := range memos {
		h, mi := read(m.hits)-hits[i], read(m.misses)-misses[i]
		t.Logf("replay: %s +%d, %s +%d", m.hits, h, m.misses, mi)
		if h == 0 {
			t.Errorf("replay never hit: %s did not move", m.hits)
		}
		if mi != 0 {
			t.Errorf("replay missed: %s +%d", m.misses, mi)
		}
	}
}
