package scenario

import "fmt"

// Home is one fully initialised, tenant-ready home experiment: the
// per-home state a fleet engine schedules — its guard/decision/push
// bindings, simulated clock, RNG tree, and fault plan — behind a
// handle that advances one simulated day at a time.
//
// A Home is the unit the fleet engine (internal/fleet)
// registers as a tenant: NewHome performs the whole expensive setup
// (device calibration walks, floor-classifier training, guard wiring)
// without executing the day loop, and RunDay advances exactly one day
// on the home's own clock. Days must be run in order, 0 through
// Days()-1, each exactly once; the fleet manager guarantees this, and
// a Home is not safe for concurrent use — one goroutine at a time
// owns it (the scenario simulation is single-threaded per home by
// design, see simtime.Sim).
//
// Running every day of a Home built from cfg is bit-identical to
// scenario.Run(cfg): Run is implemented on top of NewHome.
type Home struct {
	r    *run
	next int
}

// NewHome builds the home's full simulation state (owners calibrated,
// guard wired) without running any day.
func NewHome(cfg Config) (*Home, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	return &Home{r: r}, nil
}

// ID returns the home's tenant identity: the Config.Home metric
// label, or "" for unlabeled single-home runs.
func (h *Home) ID() string { return h.r.cfg.Home }

// Config returns the home's configuration with defaults applied.
func (h *Home) Config() Config { return h.r.cfg }

// Days returns the total number of simulated days the home runs.
func (h *Home) Days() int { return h.r.cfg.Days }

// DaysRun reports how many days have been executed so far.
func (h *Home) DaysRun() int { return h.next }

// RunDay executes simulated day `day` on the event-driven scheduler.
// Days must be run in order; RunDay panics on an out-of-order day so
// a buggy scheduler cannot silently corrupt a tenant's RNG stream
// alignment.
func (h *Home) RunDay(day int) {
	if day != h.next {
		panic(fmt.Sprintf("scenario: home %q ran day %d, want day %d", h.r.cfg.Home, day, h.next))
	}
	h.r.runDay(day)
	h.next++
}

// RunRemaining executes every day not yet run and returns the
// outcome.
func (h *Home) RunRemaining() *Outcome {
	for h.next < h.r.cfg.Days {
		h.RunDay(h.next)
	}
	return h.r.outcome
}

// Outcome returns the home's outcome accumulated so far. It is only
// complete once DaysRun() == Days().
func (h *Home) Outcome() *Outcome { return h.r.outcome }
