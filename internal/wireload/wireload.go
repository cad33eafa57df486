// Package wireload is the wire-plane load harness: it drives
// thousands of concurrent emulated speaker sessions — TCP through a
// real StartLiveProxy (or StartLiveGuard) plane and the Google Home
// Mini UDP profile through a real UDPForwarder — with mixed
// hold/release/drop verdicts, a configurable decision-latency
// distribution, hold deadlines, and internal/faults profiles, and
// measures what the ROADMAP asks every wire-plane claim to carry:
// session setup rate, per-burst p99 added latency against a no-proxy
// baseline, and the hold-memory ceiling under a global HoldBudget with
// observable backpressure.
//
// The run has up to four phases:
//
//  1. baseline — the same burst loop straight at the sink, no proxy,
//     sampling the floor the proxy's latency is compared against;
//  2. ramp — every session dials in (bounded concurrency), which is
//     where sessions/sec comes from;
//  3. measure — legitimate sessions exchange bursts and sample
//     round-trip latency while drop-class sessions churn through
//     verdict-drop reconnects;
//  4. stall — stall-class sessions flood bursts whose decisions
//     wedge, pushing held bytes against the global budget until the
//     transport backpressure (TCP pump stalls, UDP shedding) is
//     observable in the metrics.
package wireload

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"voiceguard"
	"voiceguard/internal/faults"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/obs"
	"voiceguard/internal/proxy"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
)

// Plane names the wire plane under load.
const (
	PlaneProxy = "proxy" // StartLiveProxy: every burst is a command
	PlaneGuard = "guard" // StartLiveGuard: the Echo recognizer over emulated TLS
)

// Config parameterises one load run.
type Config struct {
	Plane       string // PlaneProxy (default) or PlaneGuard
	TCPSessions int    // concurrent TCP speaker sessions
	UDPSessions int    // concurrent UDP (GHM-profile) speaker sockets

	IdleGap    time.Duration // burst separator the live plane uses
	BurstBytes int           // payload bytes per TCP burst
	BurstEvery time.Duration // pause between a session's bursts (> IdleGap)

	BaselineBursts int // per-session no-proxy bursts (0 skips the baseline)
	MeasureBursts  int // per-session proxied bursts sampled for latency

	DecisionMean   time.Duration // mean decision latency
	DecisionJitter time.Duration // uniform +/- jitter around the mean
	HoldDeadline   time.Duration // transport hold deadline (0 disables)
	FailClosed     bool          // deadline action drop instead of release

	BudgetBytes      int64   // global hold budget (0 = unlimited)
	SessionHoldBytes int     // per-session hold cap (0 = transport default)
	AcceptShards     int     // accept-loop shards (0 = transport default)
	DropFrac         float64 // fraction of sessions with malicious verdicts
	StallFrac        float64 // fraction of sessions whose decisions wedge

	StallWindow time.Duration // duration of the stall-flood phase (0 skips)

	FaultProfile string // internal/faults profile name ("" or "none" = clean)
	Seed         int64  // seeds class assignment, jitter, and fault draws

	DialConcurrency int // max in-flight session dials during ramp
}

// withDefaults fills the zero fields of a Config.
func (c Config) withDefaults() Config {
	if c.Plane == "" {
		c.Plane = PlaneProxy
	}
	if c.TCPSessions <= 0 && c.UDPSessions <= 0 {
		c.TCPSessions = 64
	}
	if c.IdleGap <= 0 {
		c.IdleGap = 50 * time.Millisecond
	}
	if c.BurstBytes <= 0 {
		c.BurstBytes = 2048
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
	Plane       string
	TCPSessions int
	UDPSessions int

	PeakConcurrent int // max simultaneous transport sessions observed

	SetupSeconds   float64 // ramp wall-clock
	SessionsPerSec float64 // (TCP+UDP sessions) / SetupSeconds

	BaselineP50Ms float64
	BaselineP99Ms float64
	ProxiedP50Ms  float64
	ProxiedP99Ms  float64
	// AddedP99Ms is the proxy's own p99 latency tax: proxied p99 minus
	// the no-proxy baseline p99 minus the configured mean decision
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
	fmt.Fprintf(&b, "wire-plane load (%s plane): %d TCP + %d UDP sessions, peak concurrent %d\n",
		o.Plane, o.TCPSessions, o.UDPSessions, o.PeakConcurrent)
	fmt.Fprintf(&b, "  setup        %.2fs (%.0f sessions/sec)\n", o.SetupSeconds, o.SessionsPerSec)
	fmt.Fprintf(&b, "  latency      baseline p50/p99 %.2f/%.2f ms, proxied %.2f/%.2f ms, added p99 %.2f ms\n",
		o.BaselineP50Ms, o.BaselineP99Ms, o.ProxiedP50Ms, o.ProxiedP99Ms, o.AddedP99Ms)
	fmt.Fprintf(&b, "  bursts       held %d, released %d, dropped %d, reconnects %d\n",
		o.BurstsHeld, o.BurstsReleased, o.BurstsDropped, o.Reconnects)
	fmt.Fprintf(&b, "  hold memory  queue peak %d B, budget peak %d/%d B, waits %d, udp shed %d\n",
		o.HoldBytesPeak, o.BudgetUsedPeak, o.BudgetMax, o.BudgetWaits, o.UDPShed)
	fmt.Fprintf(&b, "  heap peak    %d B\n", o.HeapPeakBytes)
	fmt.Fprintf(&b, "  within budget %v, backpressure observed %v, leftover session state %d\n",
		o.WithinBudget, o.Backpressured, o.TrackedLeftover)
	return b.String()
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

// classFor assigns a session class from a seeded stream, so the mix
// is reproducible for a given seed.
func classFor(src *rng.Source, cfg Config) sessionClass {
	r := src.Float64()
	if r < cfg.StallFrac {
		return classStall
	}
	if r < cfg.StallFrac+cfg.DropFrac {
		return classDrop
	}
	return classLegit
}

// decide is the DecisionFunc under load: look up the session's class
// by speaker address, draw the decision latency (plus any fault
// delay), and verdict accordingly. Stall-class sessions — and any
// decision the fault plan "loses" — wedge until the hold deadline or
// teardown resolves them.
func (h *harness) decide(ctx context.Context) bool {
	class := classLegit
	if v, ok := h.classes.Load(voiceguard.SpeakerAddr(ctx)); ok {
		class = v.(sessionClass)
	}
	h.decMu.Lock()
	d := h.cfg.DecisionMean
	if j := h.cfg.DecisionJitter; j > 0 {
		d += time.Duration(h.decRng.Uniform(-float64(j), float64(j)))
	}
	wedged := h.plan.DropPush()
	d += h.plan.ExtraDelay()
	h.decMu.Unlock()
	if d < 0 {
		d = 0
	}
	if class == classStall || wedged {
		select {
		case <-ctx.Done():
		case <-h.stop:
		}
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return false
	case <-h.stop:
		return false
	}
	return class != classDrop
}

// Run executes one load run and reports its measurements.
func Run(cfg Config) (Outcome, error) {
	cfg = cfg.withDefaults()
	h, err := newHarness(cfg)
	if err != nil {
		return Outcome{}, err
	}
	if cfg.Plane == PlaneGuard {
		return h.runGuard()
	}
	return h.runProxy()
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
	if h.cfg.SessionHoldBytes > 0 {
		opts = append(opts, voiceguard.WithSessionHoldBytes(h.cfg.SessionHoldBytes))
	}
	if h.cfg.AcceptShards > 0 {
		opts = append(opts, voiceguard.WithAcceptShards(h.cfg.AcceptShards))
	}
	return opts
}

// sampler polls the hold gauges, the global budget, the live heap,
// and the concurrent-session count, keeping peaks.
type sampler struct {
	budget  *proxy.HoldBudget
	rt      *obs.Runtime
	heap    *metrics.Gauge
	conc    func() int
	stop    chan struct{}
	stopped chan struct{}

	mu             sync.Mutex
	holdPeak       int64
	budgetPeak     int64
	heapPeak       int64
	concurrentPeak int
}

func startSampler(budget *proxy.HoldBudget, conc func() int) *sampler {
	s := &sampler{
		budget:  budget,
		rt:      obs.NewRuntime(metrics.Default),
		heap:    metrics.Default.Gauge(obs.MetricHeapBytes),
		conc:    conc,
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.stopped)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		s.sample()
		select {
		case <-tick.C:
		case <-s.stop:
			return
		}
	}
}

func (s *sampler) sample() {
	s.rt.Collect()
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := proxy.HeldBytes(); v > s.holdPeak {
		s.holdPeak = v
	}
	if s.budget != nil {
		if v := s.budget.Used(); v > s.budgetPeak {
			s.budgetPeak = v
		}
	}
	if v := s.heap.Value(); v > s.heapPeak {
		s.heapPeak = v
	}
	if s.conc != nil {
		if v := s.conc(); v > s.concurrentPeak {
			s.concurrentPeak = v
		}
	}
}

func (s *sampler) close() {
	close(s.stop)
	<-s.stopped
	s.sample()
}

// percentile reads the p-quantile (0..1) from an unsorted sample set,
// in milliseconds.
func percentileMs(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	idx := int(p * float64(len(ms)-1))
	return ms[idx]
}

// latencyRecorder collects burst round-trip samples from many client
// goroutines.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (r *latencyRecorder) add(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}
