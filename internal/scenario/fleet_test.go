package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
)

// fleetTestConfig is small enough for unit tests but large enough to
// exercise every heterogeneity branch at least once (floorplan kinds,
// both spots, both speakers, a fail-open home, a faulty home, a
// background-traffic home).
func fleetTestConfig() FleetConfig {
	return FleetConfig{Homes: 8, Days: 1, Seed: 42, Plans: NewFleetPlans()}
}

// TestFleetMatchesSequential is the bit-identity acceptance pin: the
// fleet engine's per-home outcomes must deep-equal the same homes run
// individually through scenario.Run with identical configs.
func TestFleetMatchesSequential(t *testing.T) {
	cfg := fleetTestConfig()
	out, err := Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Homes) != cfg.Homes {
		t.Fatalf("fleet returned %d homes, want %d", len(out.Homes), cfg.Homes)
	}
	for i := 0; i < cfg.Homes; i++ {
		ref, err := Run(FleetHomeConfig(cfg.Seed, i, cfg.Days, cfg.Plans))
		if err != nil {
			t.Fatalf("sequential home %d: %v", i, err)
		}
		if !reflect.DeepEqual(out.Homes[i], ref) {
			t.Errorf("home %d: fleet outcome diverges from sequential run", i)
		}
	}
}

// TestFleetWorkerInvariance pins 1 vs N workers bit-identical.
func TestFleetWorkerInvariance(t *testing.T) {
	cfg := fleetTestConfig()
	var serial, fanned *FleetOutcome
	withWorkers(t, 1, func() {
		out, err := Fleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial = out
	})
	withWorkers(t, 8, func() {
		out, err := Fleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fanned = out
	})
	if !reflect.DeepEqual(serial.Homes, fanned.Homes) {
		t.Fatal("fleet outcomes differ between 1 and 8 workers")
	}
	if serial.Confusion != fanned.Confusion || serial.DecisionP99 != fanned.DecisionP99 {
		t.Fatal("fleet aggregates differ between 1 and 8 workers")
	}
}

// TestFleetHomeConfigPure verifies FleetHomeConfig is a pure function
// and that the promised heterogeneity shows up.
func TestFleetHomeConfigPure(t *testing.T) {
	plans := NewFleetPlans()
	for i := 0; i < 12; i++ {
		a := FleetHomeConfig(7, i, 2, plans)
		b := FleetHomeConfig(7, i, 2, plans)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("FleetHomeConfig(7, %d) not deterministic", i)
		}
		if a.Home != FleetHomeID(i) {
			t.Fatalf("home %d labeled %q", i, a.Home)
		}
		if a.Plan != plans.forHome(i) {
			t.Fatalf("home %d did not share the fleet plan pointer", i)
		}
		if a.Seed == 0 {
			t.Fatalf("home %d missing seeds: %+v", i, a)
		}
		if a.Start.Before(DefaultStart) || !a.Start.Before(DefaultStart.Add(fleetStartWindow)) {
			t.Fatalf("home %d start %v outside the stagger window", i, a.Start)
		}
	}
	// Distinct per-home command streams.
	if FleetHomeConfig(7, 0, 2, plans).Seed == FleetHomeConfig(7, 1, 2, plans).Seed {
		t.Fatal("homes share a command seed")
	}
	if FleetHomeConfig(7, 4, 2, plans).Degraded != guard.DegradedFailOpen {
		t.Fatal("home 4 should run fail-open")
	}
	if FleetHomeConfig(7, 3, 2, plans).Faults == nil {
		t.Fatal("home 3 should carry a fault profile")
	}
	if !FleetHomeConfig(7, 5, 2, plans).BackgroundTraffic {
		t.Fatal("home 5 should have background traffic")
	}
}

func TestFleetVerify(t *testing.T) {
	cfg := FleetConfig{Homes: 3, Days: 1, Seed: 9, Plans: NewFleetPlans()}
	out, err := Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := FleetVerify(out, 2); err != nil {
		t.Fatalf("FleetVerify on a clean fleet: %v", err)
	}
	// A corrupted outcome must be caught when sampled.
	out.Homes[0].Confusion.TP++
	out.Homes[1].Confusion.TP++
	out.Homes[2].Confusion.TP++
	if err := FleetVerify(out, 3); err == nil {
		t.Fatal("FleetVerify accepted corrupted outcomes")
	}
}

// TestFleetHomeLabelOverflow is the cardinality regression test: a
// fleet larger than a family's label bound must collapse into the
// overflow child instead of growing the family without limit.
func TestFleetHomeLabelOverflow(t *testing.T) {
	const name = "fleet_overflow_test_total"
	const homes = metrics.DefaultMaxCardinality + 64 // homes > bound
	r := metrics.NewRegistry()
	vec := r.CounterVec(name)
	for i := 0; i < homes; i++ {
		vec.With(metrics.Labels{Home: FleetHomeID(i)}).Inc()
	}
	children := familyValues(r.Snapshot(), name)
	if len(children) > metrics.DefaultMaxCardinality+1 {
		t.Fatalf("family grew to %d children, want ≤ bound+overflow = %d", len(children), metrics.DefaultMaxCardinality+1)
	}
	overflow, ok := children[metrics.Labels{Home: metrics.LabelOverflow}]
	if !ok {
		t.Fatal("overflow child did not engage at homes > bound")
	}
	// Every home past the bound landed in the overflow child.
	if overflow != homes-metrics.DefaultMaxCardinality {
		t.Fatalf("overflow absorbed %d updates, want %d", overflow, homes-metrics.DefaultMaxCardinality)
	}
}

// TestFleetGuardLabelsBounded runs the real guard metric families
// through a fleet once guard_verdicts is at its label bound and
// confirms the fleet's verdicts land in the overflow child instead of
// growing the family — the `home` label bound holding at fleet scale.
func TestFleetGuardLabelsBounded(t *testing.T) {
	vec := metrics.Default.CounterVec(guard.MetricVerdicts)
	have := len(familyValues(metrics.Default.Snapshot(), guard.MetricVerdicts))
	for i := have; i < metrics.DefaultMaxCardinality; i++ {
		vec.With(metrics.Labels{Home: fmt.Sprintf("filler-%d", i)})
	}
	if _, err := Fleet(FleetConfig{Homes: 10, Days: 1, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	children := familyValues(metrics.Default.Snapshot(), guard.MetricVerdicts)
	if overflow := children[metrics.Labels{Home: metrics.LabelOverflow}]; overflow == 0 {
		t.Fatal("guard_verdicts overflow child took no verdicts at homes > bound")
	}
	if len(children) != metrics.DefaultMaxCardinality+1 {
		t.Fatalf("guard_verdicts has %d children, want the bound %d plus overflow", len(children), metrics.DefaultMaxCardinality)
	}
}

// familyValues returns the snapshot's children of the named counter
// family, keyed by label set.
func familyValues(s metrics.Snapshot, name string) map[metrics.Labels]int64 {
	out := make(map[metrics.Labels]int64)
	for _, c := range s.Counters {
		if c.Name == name && c.Labels != nil {
			out[*c.Labels] = c.Value
		}
	}
	return out
}
