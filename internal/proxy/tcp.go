// Package proxy implements the Traffic Handler's transport layer: a
// transparent TCP proxy and a UDP forwarder that sit between the
// smart speaker and the home router (§IV-B2).
//
// The proxy terminates the speaker's TCP connection and opens its own
// connection to the cloud server, forwarding payload bytes between
// them. Because the proxy keeps reading from the speaker even while
// "holding", the speaker's TCP stack sees normal ACK behaviour and
// keep-alive probes are answered by the proxy's kernel socket — the
// connection survives holds of dozens of seconds. Held bytes are
// queued and later either released to the cloud (legitimate command)
// or dropped (malicious command), the latter breaking the TLS record
// sequence and causing the cloud to terminate the session, which is
// exactly Fig. 4's case III.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"voiceguard/internal/metrics"
	"voiceguard/internal/trace"
)

// Metric names, as package-level constants (the vglint metriclabel
// rule).
const (
	metricTCPSessions     = "proxy_tcp_sessions_total"
	metricTCPActive       = "proxy_tcp_sessions_active"
	metricHolds           = "proxy_holds_total"
	metricBytesIn         = "proxy_bytes_in_total"
	metricBytesOut        = "proxy_bytes_out_total"
	metricQueueOverflows  = "proxy_hold_queue_overflows_total"
	metricUpstreamDialErr = "proxy_upstream_dial_errors_total"

	// MetricHoldQueueBytes is the aggregate held-byte gauge; exported
	// so SLO ceilings can reference it by constant.
	MetricHoldQueueBytes = "proxy_hold_queue_bytes"
	// MetricOutcomes counts hold resolutions on the wire plane,
	// labeled {stage="proxy", verdict=release|drop}: every hold ends
	// in exactly one of them.
	MetricOutcomes = "proxy_outcomes"
)

// Label values of the MetricOutcomes family.
const (
	stageProxy     = "proxy"
	verdictRelease = "release"
	verdictDrop    = "drop"
)

// Transport metrics: session lifecycle, hold outcomes, byte volume in
// both directions, and the live depth of the hold queues. The queue
// gauge aggregates across sessions, so a long-lived deployment can
// watch held bytes drain as verdicts arrive. The labeled outcome
// children are resolved once at init, keeping the verdict paths on
// the zero-alloc fast path.
var (
	mTCPSessions     = metrics.NewCounter(metricTCPSessions)
	mTCPActive       = metrics.NewGauge(metricTCPActive)
	mHolds           = metrics.NewCounter(metricHolds)
	mBytesIn         = metrics.NewCounter(metricBytesIn)
	mBytesOut        = metrics.NewCounter(metricBytesOut)
	mHoldQueueBytes  = metrics.NewGauge(MetricHoldQueueBytes)
	mQueueOverflows  = metrics.NewCounter(metricQueueOverflows)
	mUpstreamDialErr = metrics.NewCounter(metricUpstreamDialErr)
	mOutcomesVec     = metrics.NewCounterVec(MetricOutcomes)
	lvRelease        = mOutcomesVec.With(metrics.Labels{Stage: stageProxy, Verdict: verdictRelease})
	lvDrop           = mOutcomesVec.With(metrics.Labels{Stage: stageProxy, Verdict: verdictDrop})
)

// ErrQueueOverflow is returned when a hold accumulates more bytes
// than the session allows.
var ErrQueueOverflow = errors.New("proxy: hold queue overflow")

// HeldBytes returns the process-wide bytes currently sitting in TCP
// hold queues (the value behind the proxy_hold_queue_bytes gauge), so
// load harnesses can sample the hold-memory ceiling without going
// through a registry snapshot.
func HeldBytes() int64 { return mHoldQueueBytes.Value() }

// DefaultMaxHoldBytes bounds the bytes buffered during one hold.
const DefaultMaxHoldBytes = 4 << 20

// readBufSize is the per-direction read buffer size. It also caps a
// single chunk, so every hold-queue copy fits one pooled buffer.
const readBufSize = 32 << 10

// bufPool recycles the read and hold buffers across sessions and
// holds. All buffers have readBufSize capacity; users re-slice to the
// length they need. Pooling keeps the steady-state pass-through path
// allocation-free: the only copies left are the ones a hold must make
// to own bytes beyond the read loop's next iteration.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, readBufSize)
		return &b
	},
}

// heldChunk is one held copy: the bytes, and the pooled buffer they
// live in, which goes back to the pool as it came out of it.
type heldChunk struct {
	data []byte
	buf  *[]byte
}

// DialFunc opens the upstream (cloud-side) connection for a new
// client session.
type DialFunc func(ctx context.Context) (net.Conn, error)

// Tap observes each client-to-server chunk before it is forwarded or
// queued. The tap may call Hold on the session; the observed chunk is
// then the first held chunk. The byte slice is only valid for the
// duration of the call.
type Tap func(s *Session, data []byte)

// TCP is a transparent TCP proxy.
type TCP struct {
	lis  net.Listener
	dial DialFunc
	tap  Tap

	mu       sync.Mutex
	sessions map[*Session]struct{}
	closed   bool

	wg sync.WaitGroup
}

// Option configures the proxy.
type Option interface {
	apply(*options)
}

type options struct {
	tap          Tap
	maxHoldBytes int
	budget       *HoldBudget
	acceptShards int
}

type tapOption Tap

func (t tapOption) apply(o *options) { o.tap = Tap(t) }

// WithTap installs a chunk observer.
func WithTap(t Tap) Option { return tapOption(t) }

type maxHoldOption int

func (m maxHoldOption) apply(o *options) { o.maxHoldBytes = int(m) }

// WithMaxHoldBytes bounds per-session hold buffering.
func WithMaxHoldBytes(n int) Option { return maxHoldOption(n) }

type budgetOption struct{ b *HoldBudget }

func (b budgetOption) apply(o *options) { o.budget = b.b }

// WithHoldBudget charges every held byte of every session against b,
// the gateway-wide memory ceiling. When the budget is exhausted a
// session's read pump stalls until bytes are credited back, closing
// the speaker's TCP window — global backpressure on top of the
// per-session WithMaxHoldBytes cap. A nil budget means unlimited.
func WithHoldBudget(b *HoldBudget) Option { return budgetOption{b: b} }

type acceptShardsOption int

func (a acceptShardsOption) apply(o *options) { o.acceptShards = int(a) }

// WithAcceptShards runs n concurrent accept loops on the listener.
// Session setup — above all the upstream dial — happens inside the
// accept loop, so a single loop serializes every new speaker behind
// the slowest dial; sharding lets a gateway absorb connection storms
// at the rate the kernel hands out sockets. n <= 0 picks a default
// based on GOMAXPROCS.
func WithAcceptShards(n int) Option { return acceptShardsOption(n) }

// defaultAcceptShards sizes the accept pool: one loop per P, capped
// so a large machine does not spend cores spinning in Accept.
func defaultAcceptShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewTCP starts a transparent proxy listening on listenAddr (use
// "127.0.0.1:0" for an ephemeral port) that connects upstream via
// dial for each accepted client.
func NewTCP(listenAddr string, dial DialFunc, opts ...Option) (*TCP, error) {
	var o options
	o.maxHoldBytes = DefaultMaxHoldBytes
	for _, opt := range opts {
		opt.apply(&o)
	}
	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("proxy: listen: %w", err)
	}
	p := &TCP{
		lis:      lis,
		dial:     dial,
		tap:      o.tap,
		sessions: make(map[*Session]struct{}),
	}
	shards := o.acceptShards
	if shards <= 0 {
		shards = defaultAcceptShards()
	}
	p.wg.Add(shards)
	for i := 0; i < shards; i++ {
		go p.acceptLoop(o)
	}
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *TCP) Addr() string { return p.lis.Addr().String() }

// Close stops accepting, terminates all sessions, and waits for all
// proxy goroutines to exit.
func (p *TCP) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	err := p.lis.Close()
	for s := range p.sessions {
		s.closeConns()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// Sessions returns the live sessions.
func (p *TCP) Sessions() []*Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Session, 0, len(p.sessions))
	for s := range p.sessions {
		out = append(out, s)
	}
	return out
}

// acceptLoop is one accept shard: several run concurrently against
// the shared listener, so one slow upstream dial cannot stall every
// other speaker's session setup.
func (p *TCP) acceptLoop(o options) {
	defer p.wg.Done()
	for {
		client, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		p.startSession(client, o)
	}
}

// startSession is the accept-shard dispatch path: dial upstream, build
// the session, register it, and launch its two pump goroutines. It is
// a designated hot function (vglint hotalloc): at a connection storm
// it runs once per arriving speaker on every shard.
func (p *TCP) startSession(client net.Conn, o options) {
	// The upstream dial happens at accept time, before any spike —
	// and therefore any command ID — exists on this session.
	//vglint:allow tracectx accept-time dial precedes any command; the session takes its command ID later via HoldCommand
	server, err := p.dial(context.Background())
	if err != nil {
		mUpstreamDialErr.Inc()
		_ = client.Close()
		return
	}
	s := &Session{
		client:       client,
		server:       server,
		clientAddr:   client.RemoteAddr().String(),
		maxHoldBytes: o.maxHoldBytes,
		budget:       o.budget,
		done:         make(chan struct{}),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.closeConns()
		return
	}
	p.sessions[s] = struct{}{}
	p.mu.Unlock()
	mTCPSessions.Inc()
	mTCPActive.Add(1)

	p.wg.Add(2)
	go func() {
		defer p.wg.Done()
		s.clientToServer(p.tap)
		p.remove(s)
	}()
	go func() {
		defer p.wg.Done()
		s.serverToClient()
	}()
}

func (p *TCP) remove(s *Session) {
	p.mu.Lock()
	delete(p.sessions, s)
	p.mu.Unlock()
	mTCPActive.Add(-1)
}

// Session is one proxied client connection and its upstream pair.
type Session struct {
	client     net.Conn
	server     net.Conn
	clientAddr string // client.RemoteAddr(), formatted once

	maxHoldBytes int
	budget       *HoldBudget

	// tapState is the Tap's per-connection state (see TapState). It
	// is touched only by the session's own read pump, so it needs no
	// lock, and it dies with the session instead of leaking in a
	// proxy-global map.
	tapState any

	mu         sync.Mutex
	holding    bool
	holdStart  time.Time // wall-clock moment the active hold began
	cmd        trace.CommandID
	queue      []heldChunk
	queued     int
	budgetHeld int // bytes currently charged against the global budget
	heldTotal  int // lifetime bytes that passed through a hold

	closeOnce sync.Once
	done      chan struct{}
}

// TapState returns the value the session's Tap stored with
// SetTapState (nil at first). Both are intentionally unsynchronized:
// call them only from the Tap, which runs on the session's read pump,
// the single goroutine that observes chunks.
func (s *Session) TapState() any { return s.tapState }

// SetTapState stores the Tap's per-connection state on the session.
func (s *Session) SetTapState(v any) { s.tapState = v }

// traceHoldLocked records the proxy-stage span for a finished hold.
// Callers hold s.mu.
func (s *Session) traceHoldLocked(outcome string, bytes int) {
	trace.Default.Record(trace.Span{
		Command: s.cmd,
		Stage:   trace.StageProxy,
		Name:    "hold",
		Start:   s.holdStart,
		End:     time.Now(),
		Attrs: []trace.Attr{
			trace.String(trace.AttrOutcome, outcome),
			trace.Int("bytes", bytes),
		},
	})
}

// ClientAddr returns the speaker-side remote address.
func (s *Session) ClientAddr() string { return s.clientAddr }

// Done is closed when the session has terminated.
func (s *Session) Done() <-chan struct{} { return s.done }

// Hold starts buffering client-to-server bytes. If called from a Tap,
// the chunk being observed is the first held chunk. Hold during an
// existing hold is a no-op. The session keeps no timer: only Release
// or Drop ends a hold.
func (s *Session) Hold() { s.HoldCommand(0) }

// HoldCommand is Hold for the traffic of command id, which names the
// hold's trace span if this call starts the hold. It returns the
// stream offset of the next byte the hold will take (an argument for
// ReleaseTo).
func (s *Session) HoldCommand(id trace.CommandID) (mark int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.holding {
		mHolds.Inc()
		s.holding = true
		s.holdStart = time.Now()
		s.cmd = id
	}
	return s.heldTotal
}

// Holding reports whether a hold is active.
func (s *Session) Holding() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holding
}

// QueuedBytes returns the bytes currently buffered by the hold.
func (s *Session) QueuedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// HeldTotal returns the lifetime number of bytes that entered a hold
// queue (whether later released or dropped).
func (s *Session) HeldTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heldTotal
}

// Release ends the hold, flushing all queued bytes to the cloud in
// order; it returns the cloud-side write error, if any. Fig. 4 case
// II: the held voice command reaches the server and the interaction
// completes normally. With no hold active it does nothing, so every
// hold is counted resolved exactly once.
func (s *Session) Release() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.holding {
		return nil
	}
	lvRelease.Inc()
	mHoldQueueBytes.Add(-int64(s.queued))
	flushed := s.queued
	for _, chunk := range s.queue {
		if _, err := s.server.Write(chunk.data); err != nil {
			s.recycleQueueLocked()
			return err
		}
	}
	s.recycleQueueLocked()
	s.traceHoldLocked(trace.OutcomeRelease, flushed)
	return nil
}

// ReleaseTo flushes the held bytes that precede stream offset mark (a
// HoldCommand result) to the cloud, in order, and keeps holding the
// rest — even when nothing is left queued, so bytes still to arrive
// stay held. It is a no-op with no hold active.
func (s *Session) ReleaseTo(mark int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := mark - (s.heldTotal - s.queued) // queued bytes before mark
	if !s.holding || n <= 0 {
		return nil
	}
	var err error
	flushed, i := 0, 0
	for ; i < len(s.queue) && flushed < n; i++ {
		chunk := s.queue[i]
		k := min(len(chunk.data), n-flushed)
		if _, err = s.server.Write(chunk.data[:k]); err != nil {
			break
		}
		flushed += k
		if k < len(chunk.data) {
			// Keep the chunk's unreleased tail at the front of its
			// pooled buffer.
			s.queue[i].data = chunk.data[:copy(chunk.data, chunk.data[k:])]
			break
		}
		bufPool.Put(chunk.buf)
	}
	rest := copy(s.queue, s.queue[i:])
	clear(s.queue[rest:])
	s.queue = s.queue[:rest]
	s.queued -= flushed
	mHoldQueueBytes.Add(-int64(flushed))
	if s.budget != nil {
		s.budget.credit(flushed)
		s.budgetHeld -= flushed
	}
	return err
}

// recycleQueueLocked returns every queued chunk to the buffer pool
// (net.Conn.Write does not retain the slices it is given), credits
// the global budget, and resets the hold state, keeping the queue's
// backing array for the session's next hold. Callers hold s.mu.
func (s *Session) recycleQueueLocked() {
	for _, chunk := range s.queue {
		bufPool.Put(chunk.buf)
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	s.queued = 0
	s.holding = false
	if s.budget != nil && s.budgetHeld > 0 {
		s.budget.credit(s.budgetHeld)
		s.budgetHeld = 0
	}
}

// Drop ends the hold, discarding the queued bytes. Fig. 4 case III:
// the cloud never sees the voice command; its TLS record sequence
// breaks on the next forwarded record and it closes the session.
// Drop returns the number of bytes discarded; like Release it does
// nothing with no hold active.
func (s *Session) Drop() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.holding {
		return 0
	}
	lvDrop.Inc()
	mHoldQueueBytes.Add(-int64(s.queued))
	n := s.queued
	s.recycleQueueLocked()
	s.traceHoldLocked(trace.OutcomeDrop, n)
	return n
}

// clientToServer pumps speaker bytes upstream, diverting them into
// the hold queue while a hold is active.
//
// The pass-through path is zero-copy and allocation-free: the tap
// observes the read buffer directly (its contract already says the
// slice is only valid for the duration of the call), and forward
// writes that same slice upstream. Bytes are copied only when a hold
// must own them past this read iteration, and that copy lands in a
// pooled buffer.
func (s *Session) clientToServer(tap Tap) {
	defer s.closeConns()
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := *bp
	for {
		n, err := s.client.Read(buf)
		if n > 0 {
			mBytesIn.Add(int64(n))
			if tap != nil {
				tap(s, buf[:n])
			}
			if werr := s.forward(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// forward writes the chunk upstream, or copies it into a pooled
// buffer on the hold queue while a hold is active. The caller keeps
// ownership of chunk either way.
//
// When a global HoldBudget is configured and exhausted, forward
// stalls the read pump (with no locks held) until budget is credited
// back or the session dies. A stalled pump stops draining the kernel
// socket buffer, so the speaker's TCP window closes: gateway-wide
// backpressure instead of unbounded hold memory.
func (s *Session) forward(chunk []byte) error {
	s.mu.Lock()
	for s.holding {
		if s.queued+len(chunk) > s.maxHoldBytes {
			s.mu.Unlock()
			mQueueOverflows.Inc()
			return ErrQueueOverflow
		}
		if s.budget == nil || s.budget.tryReserve(len(chunk)) {
			if s.budget != nil {
				s.budgetHeld += len(chunk)
			}
			hp := bufPool.Get().(*[]byte)
			held := (*hp)[:len(chunk)]
			copy(held, chunk)
			s.queue = append(s.queue, heldChunk{data: held, buf: hp})
			s.queued += len(chunk)
			s.heldTotal += len(chunk)
			mHoldQueueBytes.Add(int64(len(chunk)))
			s.mu.Unlock()
			return nil
		}
		ch := s.budget.changed()
		s.mu.Unlock()
		s.budget.noteWait()
		select {
		case <-ch:
			// Budget was credited somewhere; retake the lock and
			// re-evaluate — the hold may also have resolved meanwhile,
			// in which case the chunk flows straight upstream below.
		case <-s.done:
			return net.ErrClosed
		}
		s.mu.Lock()
	}
	_, err := s.server.Write(chunk)
	s.mu.Unlock()
	return err
}

// serverToClient pumps cloud bytes back to the speaker unmodified
// through a pooled buffer.
func (s *Session) serverToClient() {
	defer s.closeConns()
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := *bp
	for {
		n, err := s.server.Read(buf)
		if n > 0 {
			mBytesOut.Add(int64(n))
			if _, werr := s.client.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// closeConns tears down both sides of the session.
func (s *Session) closeConns() {
	s.closeOnce.Do(func() {
		_ = s.client.Close()
		_ = s.server.Close()
		// A session that dies mid-hold never releases or drops its
		// queue; take those bytes back out of the depth gauge and
		// recycle the copies.
		s.mu.Lock()
		mHoldQueueBytes.Add(-int64(s.queued))
		s.recycleQueueLocked()
		s.queue = nil
		s.mu.Unlock()
		close(s.done)
	})
}
