package voiceguard

import (
	"testing"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/emul"
	"voiceguard/internal/fleet"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/proxy"
	"voiceguard/internal/push"
	"voiceguard/internal/scenario"
)

// Each fact the pipeline counts has exactly one series. A simulated
// run, a one-home fleet and one held wire command exercise every fact
// below; none of the retired flat twins (nor the fleet's tenant
// gauges, which a fleet without unregistration could only grow, nor
// the series of the deleted guard-less UDP forwarder) may be
// registered, and each fact they used to count must show in the
// labeled family that records it.
func TestOneSeriesPerFact(t *testing.T) {
	before := metrics.Default.Snapshot()
	if _, err := RunExperiment(ExperimentConfig{
		Testbed: TestbedHouse,
		Spot:    "A",
		Speaker: EchoDot,
		Devices: []Device{{Name: "pixel5", Model: Pixel5}},
		Days:    1,
		Seed:    1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Fleet(scenario.FleetConfig{Homes: 1, Days: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	f := newLiveFixture(t, 300*time.Millisecond)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()
	f.verdicts <- true
	if err := speaker.SendPattern(commandLengths, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.CommandsReleased == 1 })

	snap := metrics.Delta(before, metrics.Default.Snapshot())
	retired := []string{
		"guard_verdict_allow_total", "guard_verdict_block_total",
		"guard_hold_seconds", "guard_degraded_verdicts_total",
		"decision_roundtrip_seconds", "decision_path_dead_total",
		"push_roundtrip_seconds", "push_stale_replies_total",
		"proxy_releases_total", "proxy_drops_total",
		"live_bursts_released_total", "live_bursts_dropped_total",
		"live_verdicts", "live_noncommand_spikes_total",
		"fleet_tenants", "fleet_tenants_registered_total", "fleet_tenants_unregistered_total",
		"proxy_udp_datagrams_forwarded_total", "proxy_udp_datagrams_held_total",
		"proxy_udp_datagrams_dropped_total", "proxy_udp_hold_queue_datagrams",
		"proxy_udp_budget_shed_total", "proxy_udp_hold_queue_bytes", "proxy_udp_peers_active",
	}
	registered := make(map[string]bool)
	for _, c := range snap.Counters {
		registered[c.Name] = true
	}
	for _, g := range snap.Gauges {
		registered[g.Name] = true
	}
	for _, h := range snap.Histograms {
		registered[h.Name] = true
	}
	for _, name := range retired {
		if registered[name] {
			t.Errorf("retired series %s is registered", name)
		}
	}

	counted := func(name string, filter metrics.Labels) (n int64) {
		for _, c := range snap.Counters {
			if c.Name == name && c.Labels != nil && c.Labels.Match(filter) {
				n += c.Value
			}
		}
		return n
	}
	total := func(name string) (n int64) {
		for _, c := range snap.Counters {
			if c.Name == name {
				n += c.Value
			}
		}
		return n
	}
	observed := func(name string) (n uint64) {
		for _, h := range snap.Histograms {
			if h.Name == name {
				n += h.Count
			}
		}
		return n
	}
	for _, fact := range []struct {
		series string
		n      int64
	}{
		{guard.MetricVerdicts, counted(guard.MetricVerdicts, metrics.Labels{})},
		{guard.MetricVerdicts + `{stage="live"}`, counted(guard.MetricVerdicts, metrics.Labels{Stage: "live"})},
		{proxy.MetricOutcomes, counted(proxy.MetricOutcomes, metrics.Labels{})},
		{guard.MetricHoldLatency, int64(observed(guard.MetricHoldLatency))},
		{decision.MetricLatency, int64(observed(decision.MetricLatency))},
		{push.MetricLatency, int64(observed(push.MetricLatency))},
		{fleet.MetricHomeDays, total(fleet.MetricHomeDays)},
		{fleet.MetricRounds, total(fleet.MetricRounds)},
	} {
		if fact.n == 0 {
			t.Errorf("%s recorded nothing", fact.series)
		}
	}
}
