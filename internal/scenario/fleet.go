package scenario

import (
	"fmt"
	"reflect"
	"time"

	"voiceguard/internal/faults"
	"voiceguard/internal/fleet"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/guard"
	"voiceguard/internal/parallel"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
	"voiceguard/internal/stats"
)

// FleetPlans is the floorplan set a fleet shares. Every home of the
// same kind uses the same *Plan pointer, so a plan is built once per
// fleet rather than once per home, and a replayed home (same seed,
// same plan pointer) finds its trace means in decision's memo, which
// is keyed by the radio model's identity.
type FleetPlans struct {
	House     *floorplan.Plan
	Apartment *floorplan.Plan
	Office    *floorplan.Plan
}

// NewFleetPlans builds the standard three-testbed set.
func NewFleetPlans() FleetPlans {
	return FleetPlans{
		House:     floorplan.House(),
		Apartment: floorplan.Apartment(),
		Office:    floorplan.Office(),
	}
}

// withDefaults fills nil plans with fresh testbeds.
func (p FleetPlans) withDefaults() FleetPlans {
	if p.House == nil {
		p.House = floorplan.House()
	}
	if p.Apartment == nil {
		p.Apartment = floorplan.Apartment()
	}
	if p.Office == nil {
		p.Office = floorplan.Office()
	}
	return p
}

// forHome returns the plan home index i uses: the fleet cycles
// house/apartment/office.
func (p FleetPlans) forHome(i int) *floorplan.Plan {
	switch i % 3 {
	case 0:
		return p.House
	case 1:
		return p.Apartment
	default:
		return p.Office
	}
}

// FleetHomeID names home i in the fleet: the `home` metric label and
// the fleet tenant ID.
func FleetHomeID(i int) string { return fmt.Sprintf("home-%04d", i) }

// fleetStartWindow is the window tenant start offsets are drawn from:
// homes begin their protocol up to six hours apart, so a fleet's
// days never run in lockstep wall-pattern.
const fleetStartWindow = 6 * time.Hour

// FleetHomeConfig builds the configuration of home i in a fleet of
// heterogeneous homes. It is a pure function of (seed, i, days,
// plans): the fleet engine and a sequential loop of Run calls build
// byte-identical configs, which is what the fleet bit-identity tests
// compare against.
//
// Heterogeneity is deterministic in the index: floorplan kind cycles
// house/apartment/office, deployment spot alternates A/B, the speaker
// alternates Echo/GHM, three device-profile variants rotate, every
// fifth home runs fail-open, roughly every fourth home lives with an
// injected push-channel fault, and every sixth home has background
// traffic. The per-home RNG stream is split from the fleet seed keyed
// by home ID — never by scheduling order — and seeds everything the
// home draws, its radio shadow field included.
func FleetHomeConfig(seed int64, i, days int, plans FleetPlans) Config {
	plans = plans.withDefaults()
	id := FleetHomeID(i)
	root := rng.New(seed).Split("fleet")
	plan := plans.forHome(i)

	cfg := Config{
		Plan:    plan,
		Spot:    "A",
		Speaker: Echo,
		Home:    id,
		Days:    days,
		Seed:    root.Split(id).Seed(),
	}
	if i%2 == 1 {
		cfg.Spot = "B"
	}
	if (i/3)%2 == 1 {
		cfg.Speaker = GHM
	}
	switch i % 3 {
	case 0:
		cfg.Devices = []DeviceSpec{
			{ID: "pixel5", Hardware: radio.Pixel5},
			{ID: "pixel4a", Hardware: radio.Pixel4a},
		}
	case 1:
		cfg.Devices = []DeviceSpec{
			{ID: "pixel5", Hardware: radio.Pixel5},
		}
	default:
		cfg.Devices = []DeviceSpec{
			{ID: "pixel4a", Hardware: radio.Pixel4a},
			{ID: "watch4", Hardware: radio.GalaxyWatch4},
		}
	}
	if i%5 == 4 {
		cfg.Degraded = guard.DegradedFailOpen
	}
	if i%4 == 3 {
		// Cycle the non-clean fault profiles across the faulty homes.
		profiles := faults.Profiles()[1:]
		p := profiles[(i/4)%len(profiles)]
		cfg.Faults = &p
	}
	if i%6 == 5 {
		cfg.BackgroundTraffic = true
	}
	// Stagger the home's simulated epoch inside the start window. The
	// draw comes from a fresh child stream keyed by home ID, so it is
	// independent of every other stream the home consumes.
	off := time.Duration(root.Split(id+"/start").Uniform(0, fleetStartWindow.Seconds())) * time.Second
	cfg.Start = DefaultStart.Add(off)
	return cfg
}

// FleetConfig parameterises a fleet experiment.
type FleetConfig struct {
	Homes int // number of homes (default 64)
	Days  int // days per home (default 2)

	// Plans is the shared floorplan set; nil entries are filled with
	// fresh testbeds. Pass the same FleetPlans to a sequential
	// comparison run so both paths share plan pointers (and therefore
	// the trace-mean memo entries keyed by them).
	Plans FleetPlans

	Seed int64
}

// withDefaults fills zero fields.
func (c FleetConfig) withDefaults() FleetConfig {
	if c.Homes == 0 {
		c.Homes = 64
	}
	if c.Days == 0 {
		c.Days = 2
	}
	c.Plans = c.Plans.withDefaults()
	return c
}

// FleetOutcome aggregates a fleet run.
type FleetOutcome struct {
	Config FleetConfig

	// Homes holds every home's outcome in home-index order —
	// bit-identical to running the same FleetHomeConfig through
	// scenario.Run individually.
	Homes []*Outcome

	Confusion stats.Confusion // aggregate over all homes
	Commands  int             // recognized commands fleet-wide
	Degraded  int             // degraded-policy verdicts fleet-wide
	HomeDays  int             // Homes × Days, the throughput unit

	// Latency summarises verification latency (seconds) over every
	// recognized command fleet-wide; DecisionP99 is its p99 as a
	// duration.
	Latency     stats.Summary
	DecisionP99 time.Duration
}

// fleetTasks is the number of tasks a fleet round fans out over.
// Outcomes do not depend on it; the fleet package's invariance test
// varies it.
const fleetTasks = 16

// Fleet simulates cfg.Homes heterogeneous homes on the fleet engine:
// homes are built in parallel, registered as tenants with a
// fleet.Manager, and advanced in day-lockstep rounds across the worker
// pool. Same seed → bit-identical per-home outcomes regardless of
// worker count.
//
// Fleet does no timing of its own (the scenario package is wall-clock
// free); callers measure elapsed time around it to derive homes/sec.
func Fleet(cfg FleetConfig) (*FleetOutcome, error) {
	cfg = cfg.withDefaults()
	homes, err := parallel.MapErr(cfg.Homes, func(i int) (*Home, error) {
		return NewHome(FleetHomeConfig(cfg.Seed, i, cfg.Days, cfg.Plans))
	})
	if err != nil {
		return nil, err
	}
	m := fleet.New(fleetTasks)
	for _, h := range homes {
		if err := m.Register(fleet.NewTenant(h.ID(), h)); err != nil {
			return nil, err
		}
	}
	m.RunAll()

	out := &FleetOutcome{
		Config:   cfg,
		Homes:    make([]*Outcome, len(homes)),
		HomeDays: cfg.Homes * cfg.Days,
	}
	var secs []float64
	for i, h := range homes {
		o := h.Outcome()
		out.Homes[i] = o
		out.Confusion.Merge(o.Confusion)
		for _, rec := range o.Records {
			if rec.Recognized {
				out.Commands++
			}
			if rec.Degraded {
				out.Degraded++
			}
		}
		secs = append(secs, o.VerificationSeconds()...)
	}
	out.Latency = stats.Summarize(secs)
	out.DecisionP99 = time.Duration(out.Latency.P99 * float64(time.Second))
	return out, nil
}

// FleetVerify re-runs a deterministic sample of the fleet's homes
// through plain sequential scenario.Run and requires each outcome to
// be deep-equal to the fleet engine's. It is the runtime spot-check
// behind the bit-identity acceptance criterion (the full-fleet
// version lives in the invariance tests); vgbench runs it outside the
// timed window. sample is clamped to the fleet size.
func FleetVerify(out *FleetOutcome, sample int) error {
	cfg := out.Config.withDefaults()
	if sample > cfg.Homes {
		sample = cfg.Homes
	}
	if sample <= 0 {
		return nil
	}
	idx := rng.New(cfg.Seed).Split("fleet/verify").Perm(cfg.Homes)[:sample]
	for _, i := range idx {
		ref, err := Run(FleetHomeConfig(cfg.Seed, i, cfg.Days, cfg.Plans))
		if err != nil {
			return fmt.Errorf("fleet verify: home %d: %w", i, err)
		}
		if !reflect.DeepEqual(out.Homes[i], ref) {
			return fmt.Errorf("fleet verify: home %d (%s) diverged from sequential run", i, FleetHomeID(i))
		}
	}
	return nil
}
