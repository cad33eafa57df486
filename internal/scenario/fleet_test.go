package scenario

import (
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

// TestFleetShardInvariance pins 1 vs 16 shards bit-identical.
func TestFleetShardInvariance(t *testing.T) {
	base := fleetTestConfig()
	one, sixteen := base, base
	one.Shards = 1
	sixteen.Shards = 16
	a, err := Fleet(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fleet(sixteen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Homes, b.Homes) {
		t.Fatal("fleet outcomes differ between 1 and 16 shards")
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
// fleet far larger than a family's label bound must collapse into the
// overflow child instead of growing the family without limit.
func TestFleetHomeLabelOverflow(t *testing.T) {
	const bound = 8
	vec := metrics.NewCounterVec("fleet_overflow_test_total")
	vec.SetMaxCardinality(bound)
	const homes = 10 * bound // homes ≫ bound
	for i := 0; i < homes; i++ {
		vec.With(metrics.Labels{Home: FleetHomeID(i)}).Inc()
	}
	children := vec.Children()
	if len(children) > bound+1 {
		t.Fatalf("family grew to %d children, want ≤ bound+overflow = %d", len(children), bound+1)
	}
	overflow, ok := children[metrics.Labels{Home: metrics.LabelOverflow}]
	if !ok {
		t.Fatal("overflow child did not engage at homes ≫ bound")
	}
	// Every home past the bound landed in the overflow child.
	if got := overflow.Value(); got != homes-bound {
		t.Fatalf("overflow absorbed %d updates, want %d", got, homes-bound)
	}
}

// TestFleetGuardLabelsBounded runs the real guard metric families
// through a fleet bigger than a lowered bound and confirms the
// overflow engages on guard_verdicts — the PR-7 `home` label bound
// holding at fleet scale.
func TestFleetGuardLabelsBounded(t *testing.T) {
	vec := metrics.Default.CounterVec(guard.MetricVerdicts)
	vec.SetMaxCardinality(4)
	defer vec.SetMaxCardinality(metrics.DefaultMaxCardinality)

	before := len(vec.Children())
	if _, err := Fleet(FleetConfig{Homes: 10, Days: 1, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	children := vec.Children()
	if _, ok := children[metrics.Labels{Home: metrics.LabelOverflow}]; !ok {
		t.Fatal("guard_verdicts overflow child did not engage at homes > bound")
	}
	if grown := len(children) - before; grown > 4+1 {
		t.Fatalf("guard_verdicts grew by %d children past a bound of 4", grown)
	}
}
