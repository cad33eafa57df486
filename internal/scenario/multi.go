package scenario

import (
	"fmt"
	"time"

	"voiceguard/internal/guard"
	"voiceguard/internal/parallel"
	"voiceguard/internal/rng"
	"voiceguard/internal/stats"
	"voiceguard/internal/trafficgen"
)

// MultiOutcome is the result of a multi-speaker protection run: one
// confusion matrix per protected speaker, plus the shared capture
// statistics.
type MultiOutcome struct {
	PerSpeaker map[string]stats.Confusion // keyed by spot name
	Commands   int
}

// Overall merges the per-speaker matrices.
func (m *MultiOutcome) Overall() stats.Confusion {
	var c stats.Confusion
	for _, sc := range m.PerSpeaker {
		c.Merge(sc)
	}
	return c
}

// RunMulti reproduces the paper's multi-speaker deployment (§V): an
// Echo Dot at spot A and a Google Home Mini at spot B in the same
// home, one set of owners, one guard process routing each speaker's
// traffic to its own recognizer and decision state by source IP.
// Commands alternate between the speakers; a command is legitimate
// when an owner is in the commanding speaker's own legitimate area.
func RunMulti(cfg Config) (*MultiOutcome, error) {
	cfg = cfg.withDefaults()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("scenario: config needs a plan")
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("scenario: config needs at least one device")
	}
	echoRun, ghmRun, err := newMultiRuns(cfg)
	if err != nil {
		return nil, err
	}
	router := guard.NewRouter()
	if err := router.Add(trafficgen.EchoIP, echoRun.guard); err != nil {
		return nil, err
	}
	if err := router.Add(trafficgen.GHMIP, ghmRun.guard); err != nil {
		return nil, err
	}
	return runMulti(cfg, router, echoRun, ghmRun), nil
}

// newMultiRuns builds the Echo run at spot A and the GHM run at spot
// B, fully initialised, without executing their day loops.
func newMultiRuns(cfg Config) (echoRun, ghmRun *run, err error) {
	// Two independent single-speaker runs share nothing; the
	// multi-speaker property under test is the *routing*: one merged
	// packet stream must reach the right recognizer. Build both runs'
	// guards against one simulated clock and one owner population by
	// running spot A's infrastructure and attaching a second guard.
	// Setup (calibration walks, classifier training) is the expensive
	// part and the two runs take distinct seeds, so they initialise on
	// the worker pool.
	ghmCfg := cfg
	ghmCfg.Seed = cfg.Seed + 5000
	setups := []struct {
		cfg     Config
		spot    string
		speaker SpeakerKind
	}{
		{cfg: cfg, spot: "A", speaker: Echo},
		{cfg: ghmCfg, spot: "B", speaker: GHM},
	}
	runs, err := parallel.MapErr(len(setups), func(i int) (*run, error) {
		c := setups[i].cfg
		c.Spot, c.Speaker = setups[i].spot, setups[i].speaker
		return newRun(c)
	})
	if err != nil {
		return nil, nil, err
	}
	return runs[0], runs[1], nil
}

// runMulti alternates commands between the two runs, feeding every
// packet of both through router.
func runMulti(cfg Config, router *guard.Router, echoRun, ghmRun *run) *MultiOutcome {
	echoRun.router, ghmRun.router = router, router
	out := &MultiOutcome{PerSpeaker: make(map[string]stats.Confusion, 2)}
	src := rng.New(cfg.Seed).Split("multi")

	// Alternate commands between speakers across the experiment days,
	// feeding both runs' packets through the shared router. Each
	// run's simulated clock advances with its own packets; the merged
	// stream is interleaved chronologically per speaker.
	commandsPer := cfg.Days * (cfg.LegitPerDay + cfg.AttackPerDay) / 2
	for i := 0; i < commandsPer; i++ {
		malicious := src.Bool(float64(cfg.AttackPerDay) / float64(cfg.LegitPerDay+cfg.AttackPerDay))
		for _, r := range []*run{echoRun, ghmRun} {
			// The inter-home gap routes through the event heap: the
			// command is scheduled as a clock event and the clock runs
			// up to it, so fleet-style runs interleave with pending
			// push wake-ups and timers instead of bypassing the
			// scheduler. Pending events due before the command keep
			// their lower sequence numbers, so firing order matches
			// the old advance-then-call flow exactly.
			r, i := r, i
			at := r.clock.Now().Add(time.Duration(src.Uniform(300, 1500)) * time.Second)
			r.clock.Schedule(at, func() {
				if malicious {
					r.attackCommand(i, src)
				} else {
					r.legitCommand(i, src)
				}
			})
			r.clock.RunUntil(at)
			out.Commands++
		}
	}

	out.PerSpeaker["A"] = echoRun.outcome.Confusion
	out.PerSpeaker["B"] = ghmRun.outcome.Confusion
	return out
}

// RunSeeds executes the same experiment configuration once per seed
// and returns the outcomes in seed order. Seeded trials share nothing
// (each builds its own plan caches, guard, and RNG tree from its
// seed), so they fan out across the parallel worker pool; outcome i
// is identical to a serial Run with cfg.Seed = seeds[i].
//
// This is the entry point for confidence-interval sweeps: the
// single-number tables of the paper become distributions by running
// the same config across tens of seeds.
func RunSeeds(cfg Config, seeds []int64) ([]*Outcome, error) {
	return parallel.MapErr(len(seeds), func(i int) (*Outcome, error) {
		c := cfg
		c.Seed = seeds[i]
		return Run(c)
	})
}
