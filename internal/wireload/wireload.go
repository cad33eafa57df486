// Package wireload is the wire-plane load harness: it drives
// thousands of concurrent emulated speaker sessions — Echo sessions
// (emul.SpeakerClient) through a real StartLiveGuard into the cloud
// emulator, and the Google Home Mini UDP profile through a real
// UDPForwarder — with mixed hold/release/drop verdicts, a
// configurable decision-latency distribution, hold deadlines, and
// internal/faults profiles, and measures what the ROADMAP asks every
// wire-plane claim to carry: session setup rate, per-command p99
// added latency against a no-guard baseline, and the hold-memory
// ceiling under a global HoldBudget with observable backpressure.
//
// The run has up to four phases:
//
//  1. baseline — the same command loop straight at the cloud
//     emulator, no guard, sampling the floor the guard's latency is
//     compared against;
//  2. ramp — every session dials in (bounded concurrency), which is
//     where sessions/sec comes from;
//  3. measure — legitimate sessions exchange commands and sample
//     round-trip latency while drop-class sessions churn through
//     verdict-drop reconnects;
//  4. stall — stall-class sessions flood commands whose decisions
//     wedge, pushing held bytes against the global budget until the
//     transport backpressure (TCP pump stalls, UDP shedding) is
//     observable in the metrics.
package wireload

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"voiceguard"
	"voiceguard/internal/emul"
	"voiceguard/internal/faults"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/obs"
	"voiceguard/internal/proxy"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
)

// Config parameterises one load run.
type Config struct {
	TCPSessions int // concurrent Echo speaker sessions through the guard
	UDPSessions int // concurrent UDP (GHM-profile) speaker sockets

	IdleGap    time.Duration // spike separator the guard uses
	BurstEvery time.Duration // pause between a session's commands (> IdleGap)

	BaselineBursts int // per-session no-guard commands (0 skips the baseline)
	MeasureBursts  int // per-session guarded commands sampled for latency

	DecisionMean   time.Duration // mean decision latency
	DecisionJitter time.Duration // uniform +/- jitter around the mean
	HoldDeadline   time.Duration // transport hold deadline (0 disables)
	FailClosed     bool          // deadline action drop instead of release

	BudgetBytes int64   // global hold budget (0 = unlimited)
	DropFrac    float64 // fraction of sessions with malicious verdicts
	StallFrac   float64 // fraction of sessions whose decisions wedge

	StallWindow time.Duration // duration of the stall-flood phase (0 skips)

	FaultProfile string // internal/faults profile name ("" or "none" = clean)
	Seed         int64  // seeds class assignment, jitter, and fault draws

	DialConcurrency int // max in-flight session dials during ramp
}

// withDefaults fills the zero fields of a Config.
func (c Config) withDefaults() Config {
	if c.IdleGap <= 0 {
		c.IdleGap = 50 * time.Millisecond
	}
	if c.BurstEvery <= c.IdleGap {
		c.BurstEvery = 3 * c.IdleGap
	}
	if c.MeasureBursts <= 0 {
		c.MeasureBursts = 3
	}
	if c.DecisionMean <= 0 {
		c.DecisionMean = 25 * time.Millisecond
	}
	if c.DialConcurrency <= 0 {
		c.DialConcurrency = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Outcome is one run's measurements.
type Outcome struct {
	TCPSessions int
	UDPSessions int
	// Legit, Drop and Stall count the TCP sessions of each verdict
	// class.
	Legit, Drop, Stall int
	StallWindow        time.Duration

	PeakConcurrent int // max simultaneous transport sessions observed

	SetupSeconds   float64 // ramp wall-clock
	SessionsPerSec float64 // (TCP+UDP sessions) / SetupSeconds

	BaselineP50Ms float64
	BaselineP99Ms float64
	ProxiedP50Ms  float64
	ProxiedP99Ms  float64
	// AddedP99Ms is the guard's own p99 latency tax: guarded p99 minus
	// the no-guard baseline p99 minus the configured mean decision
	// latency (the hold is policy, not overhead), floored at zero.
	AddedP99Ms float64

	BurstsHeld     int
	BurstsReleased int
	BurstsDropped  int
	Reconnects     int // drop-class session churns

	HoldBytesPeak   int64 // peak of the TCP hold-queue gauge
	BudgetUsedPeak  int64 // peak bytes charged against the global budget
	BudgetMax       int64 // configured ceiling (0 = unlimited)
	BudgetWaits     int64 // TCP pump stalls on an exhausted budget
	UDPShed         int   // UDP datagrams shed on an exhausted budget
	HeapPeakBytes   int64 // peak live heap during the run (internal/obs)
	WithinBudget    bool  // BudgetUsedPeak never exceeded BudgetMax
	Backpressured   bool  // budget pressure was observed (waits or shed)
	TrackedLeftover int   // live-plane per-session state left after close
}

// Text renders the outcome as a human-readable report.
func (o Outcome) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wire-plane load: %d TCP (%d legit, %d drop, %d stall) + %d UDP sessions, peak concurrent %d\n",
		o.TCPSessions, o.Legit, o.Drop, o.Stall, o.UDPSessions, o.PeakConcurrent)
	fmt.Fprintf(&b, "  setup        %.2fs (%.0f sessions/sec)\n", o.SetupSeconds, o.SessionsPerSec)
	fmt.Fprintf(&b, "  latency      baseline p50/p99 %.2f/%.2f ms, guarded %.2f/%.2f ms, added p99 %.2f ms\n",
		o.BaselineP50Ms, o.BaselineP99Ms, o.ProxiedP50Ms, o.ProxiedP99Ms, o.AddedP99Ms)
	fmt.Fprintf(&b, "  commands     held %d, released %d, dropped %d, reconnects %d\n",
		o.BurstsHeld, o.BurstsReleased, o.BurstsDropped, o.Reconnects)
	fmt.Fprintf(&b, "  hold memory  queue peak %d B, budget peak %d/%d B, waits %d, udp shed %d\n",
		o.HoldBytesPeak, o.BudgetUsedPeak, o.BudgetMax, o.BudgetWaits, o.UDPShed)
	fmt.Fprintf(&b, "  heap peak    %d B\n", o.HeapPeakBytes)
	fmt.Fprintf(&b, "  within budget %v, backpressure observed %v, leftover session state %d\n",
		o.WithinBudget, o.Backpressured, o.TrackedLeftover)
	return b.String()
}

// Check reports every structural invariant the run broke: a held
// command left unresolved, the budget overrun, session state left
// after close, no backpressure from a stall flood against a budget,
// and a class that never did its part (no session set up, no command
// held, no legit command released, no drop-class reconnect).
func (o Outcome) Check() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if o.SessionsPerSec <= 0 {
		fail("no session was set up")
	}
	if o.TCPSessions > 0 && o.BurstsHeld == 0 {
		fail("no command was held")
	}
	if resolved := o.BurstsReleased + o.BurstsDropped; resolved != o.BurstsHeld {
		fail("resolved %d of %d held commands", resolved, o.BurstsHeld)
	}
	if !o.WithinBudget {
		fail("budget exceeded: peak %d > max %d", o.BudgetUsedPeak, o.BudgetMax)
	}
	if o.TrackedLeftover != 0 {
		fail("%d sessions' state left after close", o.TrackedLeftover)
	}
	if o.Stall > 0 && o.StallWindow > 0 && o.BudgetMax > 0 && !o.Backpressured {
		fail("stall flood produced no backpressure (waits %d, shed %d)", o.BudgetWaits, o.UDPShed)
	}
	if o.Legit > 0 && o.BurstsReleased == 0 {
		fail("no legit command was released")
	}
	if o.Drop > 0 && o.Reconnects == 0 {
		fail("drop-class sessions never reconnected")
	}
	return errors.Join(errs...)
}

// sessionClass is a session's scripted verdict behaviour.
type sessionClass uint8

const (
	classLegit sessionClass = iota // decisions release after the latency draw
	classDrop                      // decisions drop after the latency draw
	classStall                     // decisions wedge until deadline/teardown
)

// harness is the shared state of one run.
type harness struct {
	cfg  Config
	stop chan struct{}

	classes sync.Map // speaker addr (string) -> sessionClass

	// decMu serialises the decision-latency rng and the fault plan
	// (neither is goroutine-safe); decisions are thousands per second
	// at most, so one mutex is not a bottleneck.
	decMu  sync.Mutex
	decRng *rng.Source
	plan   *faults.Plan

	reconnects atomic.Int64
}

func newHarness(cfg Config) (*harness, error) {
	h := &harness{
		cfg:    cfg,
		stop:   make(chan struct{}),
		decRng: rng.New(cfg.Seed).Split("decision"),
	}
	if cfg.FaultProfile != "" && cfg.FaultProfile != "none" {
		p, ok := faults.ByName(cfg.FaultProfile)
		if !ok {
			return nil, fmt.Errorf("wireload: unknown fault profile %q", cfg.FaultProfile)
		}
		h.plan = faults.NewPlan(p, simtime.Real{}, rng.New(cfg.Seed).Split("faults"))
	}
	return h, nil
}

// decide is the DecisionFunc under load: look up the session's class
// by speaker address, draw the decision latency (plus any fault
// delay), and verdict accordingly. Stall-class sessions — and any
// decision the fault plan "loses" — wedge until the hold deadline or
// teardown resolves them.
func (h *harness) decide(ctx context.Context) bool {
	v, _ := h.classes.Load(voiceguard.SpeakerAddr(ctx))
	class, _ := v.(sessionClass) // an unknown speaker is legit
	h.decMu.Lock()
	d := h.cfg.DecisionMean
	if j := h.cfg.DecisionJitter; j > 0 {
		d += time.Duration(h.decRng.Uniform(-float64(j), float64(j)))
	}
	wedged := h.plan.DropPush()
	d += h.plan.ExtraDelay()
	h.decMu.Unlock()
	var fire <-chan time.Time
	if class != classStall && !wedged {
		t := time.NewTimer(max(d, 0))
		defer t.Stop()
		fire = t.C
	}
	select {
	case <-fire:
		return class != classDrop
	case <-ctx.Done():
	case <-h.stop:
	}
	return false
}

// Run executes one load run and reports its measurements.
func Run(cfg Config) (Outcome, error) {
	cfg = cfg.withDefaults()
	h, err := newHarness(cfg)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		TCPSessions: cfg.TCPSessions,
		UDPSessions: cfg.UDPSessions,
		StallWindow: cfg.StallWindow,
		BudgetMax:   cfg.BudgetBytes,
	}
	// The class mix is a seeded draw, reproducible for a given seed.
	classSrc := rng.New(cfg.Seed).Split("class")
	classes := make([]sessionClass, cfg.TCPSessions)
	var count [3]int
	for i := range classes {
		switch r := classSrc.Float64(); {
		case r < cfg.StallFrac:
			classes[i] = classStall
		case r < cfg.StallFrac+cfg.DropFrac:
			classes[i] = classDrop
		}
		count[classes[i]]++
	}
	out.Legit, out.Drop, out.Stall = count[classLegit], count[classDrop], count[classStall]

	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer cloud.Close()
	var baseline []time.Duration
	if cfg.BaselineBursts > 0 {
		baseline = h.baseline(cloud.Addr(), classes)
	}

	budget := proxy.NewHoldBudget(cfg.BudgetBytes)
	g, err := voiceguard.StartLiveGuard("127.0.0.1:0", cloud.Addr(), h.decide, cfg.IdleGap, h.liveOpts(budget)...)
	if err != nil {
		return out, err
	}

	// Ramp: every session dials in.
	rampStart := time.Now()
	var udp *udpLoad
	setup := 0
	if cfg.UDPSessions > 0 {
		if udp, setup, err = h.startUDP(budget, cfg.UDPSessions); err != nil {
			_ = g.Close()
			return out, err
		}
	}
	sampled := h.startSampler(&out, budget, func() int {
		if udp == nil {
			return g.TrackedSessions()
		}
		return g.TrackedSessions() + udp.fwd.ActivePeers()
	})
	clients := h.dialAll(g.Addr(), classes)
	for _, sp := range clients {
		if sp != nil {
			setup++
		}
	}
	out.SetupSeconds = time.Since(rampStart).Seconds()
	if out.SetupSeconds > 0 {
		out.SessionsPerSec = float64(setup) / out.SetupSeconds
	}

	// Measure phase: legit sessions sample latency, drop sessions
	// churn; stall sessions wait for their window.
	rtts := make([][]time.Duration, len(clients))
	var wg sync.WaitGroup
	for i, sp := range clients {
		if sp != nil && classes[i] != classStall {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				clients[i] = h.session(clients[i], classes[i], i, g.Addr(), &rtts[i])
			}(i)
		}
	}
	wg.Wait()

	// Stall window: wedged-decision floods drive the global budget to
	// its ceiling so backpressure is observable.
	if cfg.StallWindow > 0 {
		for i, sp := range clients {
			if sp != nil && classes[i] == classStall {
				wg.Add(1)
				go func(sp *emul.SpeakerClient) {
					defer wg.Done()
					h.stallFlood(sp)
				}(sp)
			}
		}
		time.Sleep(cfg.StallWindow)
	}

	// Teardown: stop unwedges every decision, and closing the speakers
	// ends any flood write the stalled pump left blocked.
	close(h.stop)
	for _, sp := range clients {
		if sp != nil {
			_ = sp.Close()
		}
	}
	wg.Wait()
	if udp != nil {
		out.UDPShed = udp.close()
	}
	closeErr := g.Close()
	sampled()

	h.fillMeasurements(&out, g, budget, baseline, slices.Concat(rtts...))
	return out, closeErr
}

// liveOpts renders the config into live-plane options.
func (h *harness) liveOpts(budget *proxy.HoldBudget) []voiceguard.LiveOption {
	var opts []voiceguard.LiveOption
	if h.cfg.HoldDeadline > 0 {
		policy := guard.DegradedFailOpen
		if h.cfg.FailClosed {
			policy = guard.DegradedFailClosed
		}
		opts = append(opts, voiceguard.WithHoldDeadline(h.cfg.HoldDeadline, policy))
	}
	if budget != nil {
		opts = append(opts, voiceguard.WithHoldBudget(budget))
	}
	return opts
}

// startSampler raises the outcome's peaks (hold-queue bytes, budget
// use, live heap, concurrent sessions) every 20 ms until the run
// stops; the returned wait blocks until it has. Until then only its
// goroutine writes those fields.
func (h *harness) startSampler(out *Outcome, budget *proxy.HoldBudget, conc func() int) (wait func()) {
	rt, heap := obs.NewRuntime(metrics.Default), metrics.Default.Gauge(obs.MetricHeapBytes)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			rt.Collect()
			out.HoldBytesPeak = max(out.HoldBytesPeak, proxy.HeldBytes())
			if budget != nil {
				out.BudgetUsedPeak = max(out.BudgetUsedPeak, budget.Used())
			}
			out.HeapPeakBytes = max(out.HeapPeakBytes, heap.Value())
			out.PeakConcurrent = max(out.PeakConcurrent, conc())
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return func() { <-done }
}

// percentileMs reads the p-quantile (0..1) of a sample set in
// milliseconds, sorting the samples in place.
func percentileMs(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return float64(samples[int(p*float64(len(samples)-1))]) / float64(time.Millisecond)
}

// fillMeasurements folds the guard's final counters, the budget
// state, and the latency percentiles into the outcome.
func (h *harness) fillMeasurements(out *Outcome, g *voiceguard.LiveGuard, budget *proxy.HoldBudget, baseline, guarded []time.Duration) {
	st := g.Stats()
	out.BurstsHeld, out.BurstsReleased, out.BurstsDropped = st.CommandsHeld, st.CommandsReleased, st.CommandsDropped
	out.Reconnects = int(h.reconnects.Load())
	out.TrackedLeftover = g.TrackedSessions()

	if budget != nil {
		out.BudgetWaits = budget.Waits()
	}
	out.WithinBudget = out.BudgetMax <= 0 || out.BudgetUsedPeak <= out.BudgetMax
	out.Backpressured = out.BudgetWaits > 0 || out.UDPShed > 0

	out.BaselineP50Ms = percentileMs(baseline, 0.50)
	out.BaselineP99Ms = percentileMs(baseline, 0.99)
	out.ProxiedP50Ms = percentileMs(guarded, 0.50)
	out.ProxiedP99Ms = percentileMs(guarded, 0.99)
	if len(guarded) > 0 {
		decision := float64(h.cfg.DecisionMean) / float64(time.Millisecond)
		out.AddedP99Ms = max(out.ProxiedP99Ms-out.BaselineP99Ms-decision, 0)
	}
}
