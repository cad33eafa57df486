package voiceguard

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/pcap"
	"voiceguard/internal/proxy"
	"voiceguard/internal/recognize"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// Wire-plane metric names. MetricLiveHoldSeconds is exported so SLO
// objectives (internal/obs) can reference the histogram by name.
const (
	metricLiveHeld = "live_bursts_held_total"

	// MetricLiveHoldSeconds is the wall-clock duration of each
	// DecisionFunc call (query started → verdict) on the wire plane.
	MetricLiveHoldSeconds = "live_hold_seconds"

	stageLive = "live"
)

// Wire-plane metrics: the commands handed to the DecisionFunc and the
// wall-clock decision duration. The guard core counts the verdicts, in
// guard_verdicts under stage="live", and the non-command spikes. These
// are what `vgproxy -metrics-addr` serves.
var (
	mLiveHeld        = metrics.NewCounter(metricLiveHeld)
	mLiveHoldSeconds = metrics.NewHistogram(MetricLiveHoldSeconds)
)

// DecisionFunc decides whether the voice command currently held by
// the live plane is legitimate. It runs on its own goroutine while the
// traffic stays held; returning true releases the command's held
// bytes to the cloud, false drops them (terminating the TLS session).
type DecisionFunc func(ctx context.Context) bool

// speakerAddrKey carries the held session's speaker-side remote
// address through the DecisionFunc context.
type speakerAddrKey struct{}

// SpeakerAddr returns the remote address of the speaker whose burst
// the DecisionFunc is adjudicating, or "" when the context does not
// come from a live adjudication. Load harnesses and per-device policy
// maps key verdicts off it.
func SpeakerAddr(ctx context.Context) string {
	addr, _ := ctx.Value(speakerAddrKey{}).(string)
	return addr
}

// LiveOption configures the wire plane's safety valves, shared by
// StartLiveProxy and StartLiveGuard.
type LiveOption func(*liveOptions)

type liveOptions struct {
	holdDeadline time.Duration
	degraded     guard.DegradedPolicy
	transport    []proxy.Option
}

// WithHoldDeadline sets each connection guard's hold deadline
// (guard.Guard.HoldDeadline): if a DecisionFunc wedges, crashes, or
// simply never returns, held bytes are resolved at most d after the
// hold began, by policy — fail-open releases them to the cloud,
// fail-closed drops them. d <= 0 leaves the deadline disabled.
func WithHoldDeadline(d time.Duration, policy guard.DegradedPolicy) LiveOption {
	return func(o *liveOptions) {
		o.holdDeadline = d
		o.degraded = policy
	}
}

// WithHoldBudget charges every held byte — across all sessions of the
// proxy — against b, a gateway-wide memory ceiling with transport
// backpressure (see proxy.NewHoldBudget). A nil budget disables the
// ceiling.
func WithHoldBudget(b *proxy.HoldBudget) LiveOption {
	return func(o *liveOptions) { o.transport = append(o.transport, proxy.WithHoldBudget(b)) }
}

// The wire plane sits inline on a single speaker-to-cloud path, so
// the endpoints of the packets it builds for the recognizer are fixed
// by construction.
var (
	speakerWireIP = pcap.IPv4{10, 99, 0, 2}
	cloudWireIP   = pcap.IPv4{10, 99, 0, 1}
)

// LiveGuard is VoiceGuard's Traffic Processing Module on real sockets:
// a transparent TCP proxy whose every connection runs its own
// guard.Guard — the core the simulation runs — on the wall clock. The
// guard holds the connection's bytes in its proxy session while the
// DecisionFunc adjudicates each recognized command, and releases or
// drops them by the guard's hold rule: bytes go out only once every
// spike they belong to has a release verdict, and any drop verdict
// discards the hold.
type LiveGuard struct {
	tcp     *proxy.TCP
	decide  DecisionFunc
	idle    time.Duration
	records bool // parse TLS records for the Echo recognizer
	opts    liveOptions

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // in-flight DecisionFunc calls

	held, released, dropped, nonCommands atomic.Int64
}

// LiveGuardStats counts the guard's traffic-handling outcomes.
type LiveGuardStats struct {
	CommandsHeld     int // commands handed to the DecisionFunc
	CommandsReleased int // legitimate commands forwarded
	CommandsDropped  int // malicious commands discarded
	NonCommands      int // spikes released without a decision query
}

// liveConn is one connection's guard, kept on its proxy.Session. mu
// serializes everything that enters the guard — the session's chunks,
// its timers, and its verdicts — so the guard runs single-threaded,
// as it does on the simulated clock.
type liveConn struct {
	mu      sync.Mutex
	guard   *guard.Guard
	records recordReader
}

// StartLiveGuard launches the wire-plane guard: listen on listenAddr,
// forward to upstreamAddr, parse the speaker's stream into TLS records
// for the Echo recognizer, and adjudicate recognized voice commands
// with decide. idleGap separates traffic spikes (the paper uses one
// second).
func StartLiveGuard(listenAddr, upstreamAddr string, decide DecisionFunc, idleGap time.Duration, opts ...LiveOption) (*LiveGuard, error) {
	return startLive(listenAddr, upstreamAddr, decide, idleGap, true, opts)
}

// StartLiveProxy launches the same plane with the Google Home Mini
// recognizer, fed one packet per chunk: any burst of bytes after
// idleGap of silence is a command, held while decide adjudicates it.
// It needs no TLS framing, so it guards any byte stream.
func StartLiveProxy(listenAddr, upstreamAddr string, decide DecisionFunc, idleGap time.Duration, opts ...LiveOption) (*LiveGuard, error) {
	return startLive(listenAddr, upstreamAddr, decide, idleGap, false, opts)
}

func startLive(listenAddr, upstreamAddr string, decide DecisionFunc, idleGap time.Duration, records bool, opts []LiveOption) (*LiveGuard, error) {
	if decide == nil {
		return nil, fmt.Errorf("voiceguard: a DecisionFunc is required")
	}
	if idleGap <= 0 {
		idleGap = time.Second
	}
	var lo liveOptions
	for _, opt := range opts {
		opt(&lo)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &LiveGuard{
		decide:  decide,
		idle:    idleGap,
		records: records,
		opts:    lo,
		ctx:     ctx,
		cancel:  cancel,
	}
	tcp, err := proxy.NewTCP(listenAddr,
		func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", upstreamAddr)
		},
		append(lo.transport, proxy.WithTap(g.tap))...)
	if err != nil {
		cancel()
		return nil, err
	}
	g.tcp = tcp
	return g, nil
}

// tap feeds one speaker-to-cloud chunk to its connection's guard. It
// runs on the session's read pump before the chunk is forwarded or
// held, and takes only that connection's lock.
func (g *LiveGuard) tap(s *proxy.Session, data []byte) {
	c, _ := s.TapState().(*liveConn)
	if c == nil {
		c = g.newConn(s)
		s.SetTapState(c)
	}
	c.mu.Lock()
	c.feed(time.Now(), data, g.records)
	c.mu.Unlock()
}

// feed hands the guard one chunk that arrived at now: as one packet,
// or as the whole TLS records it completes. A record's bytes are
// reused once Guard.Feed returns, which keeps no packet. Callers hold
// c.mu.
func (c *liveConn) feed(now time.Time, data []byte, records bool) {
	if !records {
		p := wirePacket(now, nil, len(data))
		c.guard.Feed(&p)
		return
	}
	for {
		record, rest, ok := c.records.next(data)
		if !ok {
			return
		}
		data = rest
		p := wirePacket(now, record, len(record))
		c.guard.Feed(&p)
	}
}

// wirePacket is one unit of the speaker's stream as the recognizer
// sees it.
func wirePacket(at time.Time, payload []byte, n int) pcap.Packet {
	return pcap.Packet{
		Time:  at,
		SrcIP: speakerWireIP,
		DstIP: cloudWireIP, DstPort: trafficgen.TLSPort,
		Proto:   pcap.TCP,
		Len:     n,
		Payload: payload,
	}
}

// newConn builds a connection's guard: the recognizer pinned to the
// wire-plane endpoints, a wall clock that calls back under the
// connection's lock, the session as the hold sink, the hold deadline
// and its policy, and the DecisionFunc as the decision method.
func (g *LiveGuard) newConn(s *proxy.Session) *liveConn {
	c := &liveConn{}
	var rec *recognize.Recognizer
	speaker := "ghm"
	if g.records {
		rec, speaker = recognize.NewEcho(speakerWireIP), "echo"
		rec.Tracker.ForceAddress(cloudWireIP)
	} else {
		rec = recognize.NewGHM(speakerWireIP)
	}
	rec.IdleGap = g.idle
	c.guard = guard.New(wallClock{mu: &c.mu, done: s.Done()}, rec, liveDecide{g: g, s: s, c: c}, speaker)
	c.guard.SetLabels(metrics.Labels{Stage: stageLive})
	c.guard.Stage = trace.StageLive
	c.guard.Sink = s
	c.guard.HoldDeadline = g.opts.holdDeadline
	c.guard.Degraded = g.opts.degraded
	c.guard.OnEvent(g.count)
	return c
}

// count folds one guard event into the plane's stats.
func (g *LiveGuard) count(e guard.Event) {
	switch {
	case e.Kind == guard.EventNonCommand:
		g.nonCommands.Add(1)
	case e.Released:
		g.released.Add(1)
	default:
		g.dropped.Add(1)
	}
}

// liveDecide is the DecisionFunc as one connection's decision.Method.
type liveDecide struct {
	g *LiveGuard
	s *proxy.Session
	c *liveConn
}

// Name is the decision span's name.
func (liveDecide) Name() string { return "live_decide" }

// Check runs the DecisionFunc on its own goroutine and delivers the
// verdict under the connection's lock. Close cancels the context and
// waits for the call to return.
func (m liveDecide) Check(req decision.Request, done func(decision.Result)) {
	g := m.g
	g.held.Add(1)
	mLiveHeld.Inc()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		ctx := context.WithValue(trace.WithCommand(g.ctx, req.Command), speakerAddrKey{}, m.s.ClientAddr())
		legit := g.decide(ctx)
		end := time.Now()
		mLiveHoldSeconds.ObserveExemplar(end.Sub(req.At), uint64(req.Command))
		m.c.mu.Lock()
		defer m.c.mu.Unlock()
		done(decision.Result{Legitimate: legit, At: end})
	}()
}

// Addr returns the guard's listen address.
func (g *LiveGuard) Addr() string { return g.tcp.Addr() }

// Stats returns the guard's counters.
func (g *LiveGuard) Stats() LiveGuardStats {
	return LiveGuardStats{
		CommandsHeld:     int(g.held.Load()),
		CommandsReleased: int(g.released.Load()),
		CommandsDropped:  int(g.dropped.Load()),
		NonCommands:      int(g.nonCommands.Load()),
	}
}

// TrackedSessions returns the number of live connections, each of
// which carries its guard state — the leak observable: it must return
// to zero once every speaker has disconnected.
func (g *LiveGuard) TrackedSessions() int { return len(g.tcp.Sessions()) }

// Close stops the guard: it cancels in-flight DecisionFunc contexts,
// closes every session, and waits for the DecisionFunc calls to
// return. Every tap has finished once the proxy is closed, so no new
// call can start behind the wait.
func (g *LiveGuard) Close() error {
	g.cancel()
	err := g.tcp.Close()
	g.wg.Wait()
	return err
}

// wallClock is a connection's guard.Scheduler on the wall clock. Its
// timers call back under the connection's lock, the lock every other
// entry into the connection's guard takes, and stop firing once the
// connection's session is done.
type wallClock struct {
	mu   *sync.Mutex
	done <-chan struct{}
}

func (wallClock) Now() time.Time { return time.Now() }

// ScheduleTimer runs fn at time at, under the connection's lock.
func (c wallClock) ScheduleTimer(at time.Time, fn func()) simtime.Timer {
	t := &wallTimer{mu: c.mu, done: c.done, fn: fn, at: at, armed: true}
	t.t = time.AfterFunc(time.Until(at), t.fire)
	return t
}

func (wallClock) RescheduleTimer(t simtime.Timer, at time.Time) simtime.Timer {
	w := t.(*wallTimer)
	w.at, w.armed = at, true
	w.t.Reset(time.Until(at))
	return w
}

// wallTimer is one wallClock timer. at and armed are guarded by the
// connection's lock: a firing that lost the race for the lock against
// Cancel or RescheduleTimer finds the timer disarmed or not yet due,
// and does nothing.
type wallTimer struct {
	mu    *sync.Mutex
	done  <-chan struct{}
	t     *time.Timer
	fn    func()
	at    time.Time
	armed bool
}

// Cancel keeps the timer from firing. Callers hold the connection's
// lock.
func (w *wallTimer) Cancel() {
	w.armed = false
	w.t.Stop()
}

func (w *wallTimer) fire() {
	select {
	case <-w.done:
		return
	default:
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.armed || time.Now().Before(w.at) {
		return
	}
	w.armed = false
	w.fn()
}

// recordReader reassembles the speaker's TLS records from the chunks
// the proxy reads. Whole records are parsed straight from the chunk;
// only a record split across chunks is copied, into buf.
type recordReader struct {
	buf []byte // the start of a record the next chunk completes
}

// next returns the stream's next whole record, taking bytes from data,
// and what is left of data; ok=false means data is used up. A returned
// record is valid until the next call.
func (r *recordReader) next(data []byte) (record, rest []byte, ok bool) {
	for len(r.buf) > 0 {
		if len(data) == 0 {
			return nil, nil, false
		}
		n := min(recordLen(r.buf)-len(r.buf), len(data))
		r.buf = append(r.buf, data[:n]...)
		data = data[n:]
		if len(r.buf) == recordLen(r.buf) {
			record, r.buf = r.buf, r.buf[:0]
			return record, data, true
		}
	}
	record, rest, ok = splitOneRecord(data)
	if !ok {
		r.buf = append(r.buf, data...)
	}
	return record, rest, ok
}

// recordLen is the length of the TLS record at the front of buf, as
// far as buf shows it: the header's until the header is whole, then
// the header's plus the body length it declares.
func recordLen(buf []byte) int {
	const headerLen = 5
	if len(buf) < headerLen {
		return headerLen
	}
	return headerLen + (int(buf[3])<<8 | int(buf[4]))
}

// splitOneRecord extracts one complete TLS record from the front of
// buf, returning (record bytes, remainder, true), or ok=false if the
// buffer does not yet hold a full record.
func splitOneRecord(buf []byte) (record, rest []byte, ok bool) {
	n := recordLen(buf)
	if len(buf) < n {
		return nil, buf, false
	}
	return buf[:n:n], buf[n:], true
}
