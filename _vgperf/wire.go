package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voiceguard"
	"voiceguard/internal/emul"
	"voiceguard/internal/guard"
	"voiceguard/internal/proxy"
	"voiceguard/internal/rng"
)

// echoCommandWire is a recognizable Echo voice-command spike as record
// lengths on the wire: activation, the p-138 command marker, upload.
var echoCommandWire = []int{277, 138, 90, 113, 131, 1100, 1200, 1150}

const (
	endRecordLen = 60 // end-of-command record the cloud answers
	heartbeatLen = 41 // keep-alive record: starts no spike
)

const (
	sessions    = 2                     // long-lived speaker sessions, one per core
	idleGap     = 10 * time.Millisecond // spike separator given to StartLiveGuard
	attackShare = 9.0 / 22              // the paper's share of commands to block
	holdBudget  = 1 << 20               // guard-wide hold memory, bytes
	// wireTailPct is the wire's latency tail: p99 leaves about 20 of
	// some 2,000 commands beyond it in a run.
	wireTailPct = 99.0
)

// wireConfig sizes one wire_guard run.
type wireConfig struct {
	seed    int64
	seconds float64
	trace   bool

	period time.Duration // command interval per session; 0 runs back to back
	// minSpacing is the least quiet time a session leaves between the
	// end of one command and the start of the next, so two commands
	// never merge into one spike even after a stall.
	minSpacing   time.Duration
	warmupCmds   int // per session, during set-up
	baselineCmds int // sent straight at the cloud, during set-up
	setupReps    int
	timeout      time.Duration

	// policy turns a command's seeded class into the DecisionFunc's
	// verdict (true releases). The self-test swaps in a broken one.
	policy func(drop bool) bool
}

func defaultWire(o options) wireConfig {
	return wireConfig{
		seed:         o.seed,
		seconds:      o.seconds,
		trace:        o.trace,
		period:       30 * time.Millisecond,
		minSpacing:   20 * time.Millisecond,
		warmupCmds:   4,
		baselineCmds: 40,
		setupReps:    3,
		timeout:      2 * time.Second,
		policy:       func(drop bool) bool { return !drop },
	}
}

// decision is one DecisionFunc call, as the benchmark saw it.
type decision struct {
	in, out time.Time
	release bool
}

// wireCmd is the command a session has in flight.
type wireCmd struct {
	drop  bool
	calls int // DecisionFunc calls attributed to it
}

// wireSession is one emulated speaker.
type wireSession struct {
	idx   int
	class *rng.Source
	sp    *emul.SpeakerClient
	addr  string
	fresh bool // the next command is the session's first

	mu  sync.Mutex
	cmd *wireCmd
	// verdicts carries DecisionFunc calls to the session. One command
	// gets one call; the spare room absorbs the extra calls a broken
	// guard could make, which the session then reports.
	verdicts chan decision
}

// wireRig is one set-up instance: cloud emulator, guard, sessions.
type wireRig struct {
	cfg      wireConfig
	cloud    *emul.CloudServer
	guard    *voiceguard.LiveGuard
	sessions []*wireSession
	byAddr   sync.Map // speaker address → *wireSession
	strays   atomic.Int64
	releases atomic.Int64
	baseline []float64 // ms
}

// decide is the benchmark's DecisionFunc: it returns at once with the
// seeded verdict of the command the calling speaker has in flight.
func (r *wireRig) decide(ctx context.Context) bool {
	in := time.Now()
	v, ok := r.byAddr.Load(voiceguard.SpeakerAddr(ctx))
	if !ok {
		r.strays.Add(1)
		return false
	}
	s := v.(*wireSession)
	s.mu.Lock()
	c := s.cmd
	if c != nil {
		c.calls++
	}
	s.mu.Unlock()
	if c == nil {
		r.strays.Add(1)
		return false
	}
	release := r.cfg.policy(c.drop)
	if release {
		r.releases.Add(1)
	}
	select {
	case s.verdicts <- decision{in: in, out: time.Now(), release: release}:
	default:
		r.strays.Add(1)
	}
	return release
}

func sendCommand(sp *emul.SpeakerClient) error {
	if err := sp.SendPattern(echoCommandWire, emul.MsgCommand); err != nil {
		return err
	}
	return sp.SendPattern([]int{endRecordLen}, emul.MsgEnd)
}

// startRig brings up one instance: cloud emulator, the no-guard
// baseline, the guard, the speaker sessions, and a few released
// warm-up commands per session.
func startRig(cfg wireConfig, seed *rng.Source) (*wireRig, error) {
	r := &wireRig{cfg: cfg}
	var err error
	if r.cloud, err = emul.NewCloudServer("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if err := r.measureBaseline(); err != nil {
		r.close()
		return nil, err
	}
	r.guard, err = voiceguard.StartLiveGuard("127.0.0.1:0", r.cloud.Addr(), r.decide, idleGap,
		voiceguard.WithHoldBudget(proxy.NewHoldBudget(holdBudget)),
		voiceguard.WithHoldDeadline(cfg.timeout, guard.DegradedFailClosed))
	if err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < sessions; i++ {
		s := &wireSession{idx: i, class: seed.SplitN("session", i), verdicts: make(chan decision, 4)}
		r.sessions = append(r.sessions, s)
		if _, err := r.dial(s); err != nil {
			r.close()
			return nil, err
		}
	}
	for k := 0; k < cfg.warmupCmds; k++ {
		for _, s := range r.sessions {
			if res := r.command(s, time.Now(), &wireCmd{}); res.err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up command: %w", res.err)
			}
		}
		time.Sleep(cfg.minSpacing)
	}
	return r, nil
}

// measureBaseline times the same command straight at the cloud
// emulator: the floor under the guard's latency.
func (r *wireRig) measureBaseline() error {
	sp, err := emul.DialSpeaker(r.cloud.Addr())
	if err != nil {
		return err
	}
	defer sp.Close()
	for k := 0; k < r.cfg.baselineCmds; k++ {
		t0 := time.Now()
		if err := sendCommand(sp); err != nil {
			return err
		}
		if f, err := sp.Await(r.cfg.timeout); err != nil || f.Type != emul.MsgResponse {
			return fmt.Errorf("baseline command got no response: %v", err)
		}
		r.baseline = append(r.baseline, ms(time.Since(t0)))
	}
	return nil
}

// dial (re)connects a session through the guard and returns how long
// the dial took.
func (r *wireRig) dial(s *wireSession) (time.Duration, error) {
	if s.sp != nil {
		_ = s.sp.Close()
		r.byAddr.Delete(s.addr)
	}
	t0 := time.Now()
	sp, err := emul.DialSpeaker(r.guard.Addr())
	d := time.Since(t0)
	if err != nil {
		s.sp = nil
		return d, err
	}
	s.sp, s.addr, s.fresh = sp, sp.LocalAddr(), true
	r.byAddr.Store(s.addr, s)
	return d, nil
}

// close tears the instance down; sessions first, so the guard can reap
// their state before it stops.
func (r *wireRig) close() {
	for _, s := range r.sessions {
		if s.sp != nil {
			_ = s.sp.Close()
		}
	}
	if r.guard != nil {
		_ = r.guard.Close()
	}
	_ = r.cloud.Close()
}

// cmdResult is the outcome of one command.
type cmdResult struct {
	err        error // why the op failed; nil on success
	drop       bool
	fresh      bool
	first      time.Time // first record written
	dec        decision
	done       time.Time // response read (release) or verdict (drop)
	dial       time.Duration
	reconnects int
}

// command sends one voice command on s and checks its fate: a release
// must reach the cloud and be answered, a drop must not, and either way
// the command must have had exactly one DecisionFunc call of its own.
func (r *wireRig) command(s *wireSession, due time.Time, c *wireCmd) (res cmdResult) {
	res = cmdResult{drop: c.drop, fresh: s.fresh}
	for len(s.verdicts) > 0 {
		<-s.verdicts
		res.err = errors.New("decision arrived with no command in flight")
	}
	s.mu.Lock()
	s.cmd = c
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.cmd = nil
		calls := c.calls
		s.mu.Unlock()
		if calls > 1 && res.err == nil {
			res.err = fmt.Errorf("held %d times", calls)
		}
	}()
	s.fresh = false
	res.first = time.Now()
	sendErr := sendCommand(s.sp)
	if sendErr != nil && !c.drop {
		res.err = fmt.Errorf("send: %w", sendErr)
		r.reconnect(s, &res)
		return res
	}

	var held bool
	if !c.drop {
		f, err := s.sp.Await(r.cfg.timeout)
		res.done = time.Now()
		res.dec, held = r.waitVerdict(s, 100*time.Millisecond)
		switch {
		case !held:
			res.err = errors.New("not held: released command had no DecisionFunc call")
		case !res.dec.release:
			res.err = errors.New("legitimate command dropped")
		case err != nil || f.Type != emul.MsgResponse:
			res.err = fmt.Errorf("released but no response: %v", err)
			r.reconnect(s, &res)
		}
		return res
	}

	res.dec, held = r.waitVerdict(s, r.cfg.timeout)
	res.done = res.dec.out
	if !held || res.dec.release {
		// The command went through to the cloud; its answer proves it.
		f, err := s.sp.Await(r.cfg.timeout)
		res.err = errors.New("not held: command had no DecisionFunc call")
		if held {
			res.err = errors.New("drop-class command released")
		}
		if err == nil && f.Type == emul.MsgResponse {
			res.err = fmt.Errorf("%v and reached the cloud", res.err)
		}
		return res
	}
	if sendErr != nil {
		// The drop came while the speaker was still writing: the
		// command's later records already broke the sequence, and the
		// cloud has closed the session under it.
		r.reconnect(s, &res)
		return res
	}
	// Fig. 4 case III: the dropped records leave a gap in the TLS record
	// sequence, so the cloud aborts the session on the next record the
	// speaker sends. A heartbeat that lands in the hold queue before the
	// drop is discarded with it, so keep sending until the alert comes.
	for try := 0; ; try++ {
		if err := s.sp.SendPattern([]int{heartbeatLen}, emul.MsgHeartbeat); err != nil {
			break
		}
		f, err := s.sp.Await(20 * time.Millisecond)
		if errors.Is(err, emul.ErrSessionClosed) {
			break
		}
		if err == nil && f.Type == emul.MsgResponse {
			res.err = errors.New("dropped command reached the cloud")
			break
		}
		if try == 50 {
			res.err = errors.New("cloud never aborted the session after a drop")
			break
		}
	}
	r.reconnect(s, &res)
	return res
}

func (r *wireRig) reconnect(s *wireSession, res *cmdResult) {
	d, err := r.dial(s)
	res.dial += d
	res.reconnects++
	if err != nil && res.err == nil {
		res.err = fmt.Errorf("reconnect: %w", err)
	}
}

func (r *wireRig) waitVerdict(s *wireSession, timeout time.Duration) (decision, bool) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case d := <-s.verdicts:
		return d, true
	case <-t.C:
		return decision{}, false
	}
}

// wireAcc gathers the timed commands.
type wireAcc struct {
	mu                          sync.Mutex
	ops, failed, matched, drops int
	releases                    int
	opMs, holdMs, releaseMs     []float64
	lateMs, dialMs              []float64
	freshHoldMs                 []float64
	tracedMs, untracedMs        []float64
	errs                        map[string]int
}

// session runs one speaker's open-loop schedule: command k is due at
// start + offset + k·period whether or not earlier ones were slow, and
// its latency counts from when it was due.
func (r *wireRig) session(s *wireSession, start, end time.Time, acc *wireAcc, rec *recorder, ops *atomic.Uint64) {
	cfg := r.cfg
	offset := cfg.period * time.Duration(s.idx) / time.Duration(sessions)
	var quietFrom time.Time
	for k := 0; ; k++ {
		due := start.Add(offset + time.Duration(k)*cfg.period)
		if cfg.period == 0 {
			due = time.Now()
		}
		if !due.Before(end) {
			break
		}
		sendAt := due
		if t := quietFrom.Add(cfg.minSpacing); t.After(sendAt) {
			sendAt = t
		}
		sleepUntil(sendAt)
		op := ops.Add(1)
		traced := cfg.trace && k%2 == 0
		c := &wireCmd{drop: s.class.Bool(attackShare)}
		res := r.command(s, due, c)
		finished := time.Now()
		acc.add(res, due, traced)
		if traced {
			r.spans(rec, op, due, res, finished)
		}
		if s.sp == nil {
			return // reconnect failed; already counted as a failed op
		}
		quietFrom = finished
		if res.reconnects > 0 {
			quietFrom = time.Time{} // a fresh session has no spike to merge with
		}
	}
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer behind time.Sleep wakes up to a millisecond late on Linux,
// which would be most of a command's latency; the kernel's
// high-resolution timer wakes within tens of microseconds, and the
// thread sleeps without spinning, so no CPU is charged to the ops.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

func (a *wireAcc) add(res cmdResult, due time.Time, traced bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	if res.dial > 0 {
		a.dialMs = append(a.dialMs, ms(res.dial))
	}
	if res.err != nil {
		a.failed++
		a.errs[res.err.Error()]++
		return
	}
	a.matched++
	lat := ms(res.done.Sub(due))
	a.opMs = append(a.opMs, lat)
	a.lateMs = append(a.lateMs, ms(res.first.Sub(due)))
	hold := ms(res.dec.in.Sub(res.first))
	if res.fresh {
		a.freshHoldMs = append(a.freshHoldMs, hold)
	} else {
		a.holdMs = append(a.holdMs, hold)
	}
	if res.drop {
		a.drops++
	} else {
		a.releases++
		a.releaseMs = append(a.releaseMs, ms(res.done.Sub(res.dec.out)))
	}
	if traced {
		a.tracedMs = append(a.tracedMs, lat)
	} else {
		a.untracedMs = append(a.untracedMs, lat)
	}
}

// spans records one command's layer boundaries: generator lateness,
// hold (first record → DecisionFunc entered), the decision, release
// (DecisionFunc returned → response) or the post-drop abort and
// redial.
func (r *wireRig) spans(rec *recorder, op uint64, due time.Time, res cmdResult, end time.Time) {
	root := span{id: rec.nextID(), op: op, layer: "wire.command", start: due, end: end}
	rec.add(root)
	add := func(layer string, a, b time.Time) {
		if !a.IsZero() && b.After(a) {
			rec.add(span{parent: root.id, op: op, layer: layer, start: a, end: b})
		}
	}
	add("gen.late", due, res.first)
	if res.dec.in.IsZero() {
		add("voiceguard.unheld", res.first, end)
		return
	}
	add("voiceguard.hold", res.first, res.dec.in)
	add("vgperf.decide", res.dec.in, res.dec.out)
	if res.drop {
		add("emul.abort+redial", res.dec.out, end)
	} else {
		add("voiceguard.release", res.dec.out, res.done)
	}
}

// runWire runs wire_guard: set-up repetitions, then every session's
// open-loop schedule for the configured time.
func runWire(cfg wireConfig, w io.Writer) (*report, error) {
	root := rng.New(cfg.seed).Split("wire_guard")
	rec := &recorder{}
	start := time.Now()

	var setups []float64
	var rig *wireRig
	for k := 0; k < cfg.setupReps; k++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = startRig(cfg, root.SplitN("rep", k)); err != nil {
			return nil, fmt.Errorf("wire set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	heldBefore := rig.guard.Stats().CommandsHeld
	cloudBefore := rig.cloud.CompletedCommands()
	relBefore := rig.releases.Load()
	straysBefore := rig.strays.Load()
	acc := &wireAcc{errs: map[string]int{}}
	var ops atomic.Uint64
	rec.on.Store(cfg.trace)
	before := sampleProc()
	firstOp := before.wall.Sub(start)
	end := before.wall.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, s := range rig.sessions {
		wg.Add(1)
		go func(s *wireSession) {
			defer wg.Done()
			rig.session(s, before.wall, end, acc, rec, &ops)
		}(s)
	}
	wg.Wait()
	rec.on.Store(false)
	after := sampleProc()
	ph := between(before, after)

	rep := &report{attempted: acc.ops, failed: acc.failed, values: map[string]float64{}}
	st := rig.guard.Stats()
	if held := st.CommandsHeld - heldBefore; held < acc.ops {
		rep.invalidf("guard held %d commands of %d sent: commands passed unheld", held, acc.ops)
	}
	if got, want := rig.cloud.CompletedCommands()-cloudBefore, rig.releases.Load()-relBefore; int64(got) != want {
		rep.invalidf("cloud completed %d commands, DecisionFunc released %d", got, want)
	}
	if n := rig.strays.Load() - straysBefore; n > 0 {
		rep.invalidf("%d DecisionFunc calls matched no command in flight", n)
	}
	if holds := ph.delta("proxy_holds_total"); int(holds) < acc.ops {
		rep.invalidf("proxy held %d times for %d commands", int(holds), acc.ops)
	}
	for _, s := range rig.sessions {
		if s.sp != nil {
			_ = s.sp.Close()
			s.sp = nil
		}
	}
	tracked := rig.guard.TrackedSessions()
	for wait := time.Now(); tracked > 0 && time.Since(wait) < 2*time.Second; tracked = rig.guard.TrackedSessions() {
		time.Sleep(time.Millisecond)
	}
	if tracked != 0 {
		rep.invalidf("guard still tracks %d sessions after every speaker closed", tracked)
	}
	rig.close()

	v := rep.values
	done := acc.ops - acc.failed
	v["setup_s"] = median(setups)
	v["ops_per_sec"] = float64(done) / ph.wall.Seconds()
	v["op_ms_p50"] = median(acc.opMs)
	v["op_ms_tail"] = percentile(acc.opMs, wireTailPct)
	v["cpu_ms_per_op"] = perOp(ms(ph.cpu), acc.ops)
	v["alloc_kb_per_op"] = perOp(ph.allocBytes/1024, acc.ops)
	v["accuracy_pct"] = 100 * perOp(float64(acc.matched), acc.ops)

	hold50 := median(acc.holdMs)
	v["voiceguard.hold_ms_p50"] = hold50
	v["voiceguard.hold_ms_tail"] = percentile(acc.holdMs, wireTailPct)
	v["voiceguard.release_ms_p50"] = median(acc.releaseMs)
	v["voiceguard.release_ms_tail"] = percentile(acc.releaseMs, wireTailPct)
	if len(acc.freshHoldMs) > 0 {
		v["proxy.session_setup_ms"] = median(acc.freshHoldMs) - hold50
	}
	v["proxy.holds_per_op"] = perOp(ph.delta("proxy_holds_total"), acc.ops)
	v["proxy.bytes_in_per_op"] = perOp(ph.delta("proxy_bytes_in_total"), acc.ops)
	v["proxy.sessions_per_op"] = perOp(ph.delta("proxy_tcp_sessions_total"), acc.ops)
	v["proxy.hold_budget_waits"] = ph.delta(proxy.MetricHoldBudgetWaits)
	v["emul.dial_ms"] = median(acc.dialMs)
	v["emul.aborts_per_op"] = perOp(ph.delta("emul_session_aborts_total"), acc.ops)
	v["emul.baseline_ms_p50"] = median(rig.baseline)
	v["gen.late_ms_tail"] = percentile(acc.lateMs, wireTailPct)
	v["runtime.gc_cpu_pct"] = ph.gcCPUPct
	v["runtime.allocs_per_op"] = perOp(ph.mallocs, acc.ops)
	v["op.samples"] = float64(len(acc.opMs))
	v["op.tail_percentile"] = wireTailPct
	v["op.failed_pct"] = 100 * perOp(float64(acc.failed), acc.ops)
	if cfg.trace && len(acc.tracedMs) > 0 && len(acc.untracedMs) > 0 {
		v["trace.overhead_pct"] = 100 * (median(acc.tracedMs)/median(acc.untracedMs) - 1)
	}
	v["heap_live_mb"] = heapLiveMB()
	v["runtime.goroutines_end"] = float64(numGoroutinesSettled())

	// Latency accounting on released commands: op = lateness + hold +
	// decision + release, so hold + release leave lateness and the
	// DecisionFunc itself as the residue.
	op50 := median(acc.opMs)
	rel50 := v["voiceguard.release_ms_p50"]
	residue := op50 - hold50 - rel50
	if op50 > 0 {
		v["trace.residue_pct"] = 100 * residue / op50
	}

	fmt.Fprintf(w, "== wire_guard seed=%d sessions=%d period=%v idle-gap=%v ==\n", cfg.seed, sessions, cfg.period, idleGap)
	fmt.Fprintf(w, "set-up: reps %v s (median %.3f s); start to first timed op %.3f s\n", setups, v["setup_s"], firstOp.Seconds())
	fmt.Fprintf(w, "ops: %d commands (%d released, %d dropped), %d failed; op latency p%g over %d samples (%d beyond)\n",
		acc.ops, acc.releases, acc.drops, acc.failed, wireTailPct, len(acc.opMs), beyond(len(acc.opMs), wireTailPct))
	for msg, n := range acc.errs {
		fmt.Fprintf(w, "  failed op: %s (x%d)\n", msg, n)
	}
	fmt.Fprintf(w, "guard: held %d commands in the timed phase\n", st.CommandsHeld-heldBefore)
	fmt.Fprintf(w, "latency accounting (p50): op %.3f ms = hold %.3f + release %.3f + residue %.3f ms (lateness + DecisionFunc); no-guard floor %.3f ms\n",
		op50, hold50, rel50, residue, v["emul.baseline_ms_p50"])
	if cfg.trace {
		rep.spans = rec.snapshot()
		var wall time.Duration
		for _, s := range rep.spans {
			if s.parent == 0 {
				wall += s.end.Sub(s.start)
			}
		}
		fmt.Fprintf(w, "per-layer self time (traced commands, %d spans):\n", len(rep.spans))
		printSelfTimes(w, selfTimes(rep.spans), wall)
		fmt.Fprintf(w, "tracing overhead: %.2f%% (traced vs untraced command op_ms_p50)\n", v["trace.overhead_pct"])
		v["trace.spans"] = float64(len(rep.spans))
	}
	return rep, nil
}
