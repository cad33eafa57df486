package wireload

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"voiceguard"
	"voiceguard/internal/proxy"
	"voiceguard/internal/rng"
)

// tcpSink is the no-op "cloud": it echoes every byte back, so a
// client can measure burst round-trip time end to end.
type tcpSink struct {
	lis net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

func startTCPSink() (*tcpSink, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wireload: sink listen: %w", err)
	}
	s := &tcpSink{lis: lis, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *tcpSink) addr() string { return s.lis.Addr().String() }

func (s *tcpSink) accept() {
	defer s.wg.Done()
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.echo(c)
	}
}

func (s *tcpSink) echo(c net.Conn) {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			if _, werr := c.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	_ = c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *tcpSink) close() {
	s.mu.Lock()
	s.closed = true
	_ = s.lis.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// tcpLoadClient is one emulated speaker connection.
type tcpLoadClient struct {
	conn  net.Conn
	class sessionClass
	idx   int
}

// dialRegistered opens a speaker connection and registers its class
// under the address the proxy will see, before the first byte flows.
func (h *harness) dialRegistered(addr string, class sessionClass, idx int) (*tcpLoadClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	h.classes.Store(conn.LocalAddr().String(), class)
	return &tcpLoadClient{conn: conn, class: class, idx: idx}, nil
}

// readEcho reads exactly n echoed bytes within the timeout.
func readEcho(conn net.Conn, buf []byte, n int, timeout time.Duration) error {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	got := 0
	for got < n {
		want := n - got
		if want > len(buf) {
			want = len(buf)
		}
		m, err := conn.Read(buf[:want])
		got += m
		if err != nil {
			return err
		}
	}
	return nil
}

// echoTimeout bounds one proxied burst round trip: the decision draw,
// a possible hold-deadline resolution, and generous scheduling slack
// at thousands of runnable goroutines per core.
func (h *harness) echoTimeout() time.Duration {
	return h.cfg.DecisionMean + h.cfg.DecisionJitter + h.cfg.HoldDeadline + 5*time.Second
}

// baselineTCP runs the burst loop straight at the sink — the no-proxy
// latency floor. Dials are bounded; the burst loops themselves all
// run concurrently, matching the proxied phase's contention.
func (h *harness) baselineTCP(addr string) []time.Duration {
	cfg := h.cfg
	rec := &latencyRecorder{}
	sem := make(chan struct{}, cfg.DialConcurrency)
	var wg sync.WaitGroup
	for i := 0; i < cfg.TCPSessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
			<-sem
			if err != nil {
				return
			}
			defer conn.Close()
			payload := make([]byte, cfg.BurstBytes)
			buf := make([]byte, 4096)
			for b := 0; b < cfg.BaselineBursts; b++ {
				start := time.Now()
				if _, err := conn.Write(payload); err != nil {
					return
				}
				if err := readEcho(conn, buf, cfg.BurstBytes, h.echoTimeout()); err != nil {
					return
				}
				rec.add(time.Since(start))
			}
		}()
	}
	wg.Wait()
	return rec.samples
}

// legitBursts runs one legitimate session's measured burst loop.
func (h *harness) legitBursts(c *tcpLoadClient, total int, rec *latencyRecorder) {
	cfg := h.cfg
	payload := make([]byte, cfg.BurstBytes)
	buf := make([]byte, 4096)
	// Stagger session phases across one burst interval so the herd
	// does not fire every burst on the same tick.
	stagger := cfg.BurstEvery * time.Duration(c.idx) / time.Duration(total)
	select {
	case <-h.stop:
		return
	case <-time.After(stagger):
	}
	for b := 0; b < cfg.MeasureBursts; b++ {
		start := time.Now()
		_ = c.conn.SetWriteDeadline(time.Now().Add(h.echoTimeout()))
		if _, err := c.conn.Write(payload); err != nil {
			return
		}
		if err := readEcho(c.conn, buf, cfg.BurstBytes, h.echoTimeout()); err != nil {
			return
		}
		rec.add(time.Since(start))
		select {
		case <-h.stop:
			return
		case <-time.After(cfg.BurstEvery):
		}
	}
}

// dropChurn runs one malicious session: each burst is verdict-dropped
// (no echo ever arrives), after which the speaker reconnects — the
// session-churn path the lastChunk leak used to live on.
func (h *harness) dropChurn(c *tcpLoadClient, proxyAddr string) {
	cfg := h.cfg
	payload := make([]byte, cfg.BurstBytes)
	buf := make([]byte, 4096)
	waitFor := cfg.DecisionMean + cfg.DecisionJitter + 500*time.Millisecond
	for b := 0; b < cfg.MeasureBursts; b++ {
		if _, err := c.conn.Write(payload); err == nil {
			// The drop verdict swallows the burst; the read deadline
			// expiring is the expected outcome.
			_ = readEcho(c.conn, buf, cfg.BurstBytes, waitFor)
		}
		_ = c.conn.Close()
		select {
		case <-h.stop:
			return
		default:
		}
		nc, err := h.dialRegistered(proxyAddr, classDrop, c.idx)
		if err != nil {
			return
		}
		h.reconnects.Add(1)
		c.conn = nc.conn
	}
}

// stallFlood is one stall-class session during the stall window: it
// fires flood bursts whose decisions wedge, so held bytes pile
// against the global budget until backpressure stalls the pump. The
// speaker never reads; write deadlines keep the loop live while the
// transport pushes back.
func (h *harness) stallFlood(c *tcpLoadClient, stop <-chan struct{}) {
	chunk := make([]byte, 8<<10)
	for {
		select {
		case <-stop:
			return
		default:
		}
		for i := 0; i < 8; i++ {
			_ = c.conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			if _, err := c.conn.Write(chunk); err != nil {
				if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
					return
				}
				break // backpressure: socket full while the pump stalls
			}
		}
		// Pause past the idle gap so the next flood opens a new burst
		// (and a new wedged hold).
		select {
		case <-stop:
			return
		case <-time.After(2 * h.cfg.IdleGap):
		}
	}
}

// startUDPSink starts the single-socket UDP echo peer.
func startUDPSink() (*net.UDPConn, error) {
	la, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("wireload: udp sink: %w", err)
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, addr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			_, _ = conn.WriteToUDP(buf[:n], addr)
		}
	}()
	return conn, nil
}

// udpClient sends one GHM-profile speaker's datagram stream and reads
// back whatever the forwarder lets through. Held and shed datagrams
// simply time out — loss is the UDP plane's expected backpressure.
func (h *harness) udpClient(conn *net.UDPConn, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	defer conn.Close()
	payload := make([]byte, 256)
	buf := make([]byte, 2048)
	for {
		_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := conn.Write(payload); err != nil {
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, _ = conn.Read(buf)
		select {
		case <-stop:
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// udpCycler drives the forwarder through hold → decide → verdict
// cycles, the UDP analogue of the per-burst adjudication.
func (h *harness) udpCycler(fwd *proxy.UDPForwarder, src *rng.Source, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	period := 4 * h.cfg.IdleGap
	if period < 200*time.Millisecond {
		period = 200 * time.Millisecond
	}
	for {
		select {
		case <-stop:
			return
		case <-time.After(period):
		}
		fwd.Hold()
		select {
		case <-stop:
			// Close resets the queue and credits the budget.
			return
		case <-time.After(h.cfg.DecisionMean):
		}
		if src.Bool(h.cfg.DropFrac) {
			fwd.Drop()
		} else {
			_ = fwd.Release()
		}
	}
}

// runProxy is the proxy-plane load run.
func (h *harness) runProxy() (Outcome, error) {
	cfg := h.cfg
	out := Outcome{
		Plane:       cfg.Plane,
		TCPSessions: cfg.TCPSessions,
		UDPSessions: cfg.UDPSessions,
		BudgetMax:   cfg.BudgetBytes,
	}

	sink, err := startTCPSink()
	if err != nil {
		return out, err
	}
	defer sink.close()

	var baseline []time.Duration
	if cfg.BaselineBursts > 0 && cfg.TCPSessions > 0 {
		baseline = h.baselineTCP(sink.addr())
	}

	budget := proxy.NewHoldBudget(cfg.BudgetBytes)
	lp, err := voiceguard.StartLiveProxy("127.0.0.1:0", sink.addr(), h.decide, cfg.IdleGap, h.liveOpts(budget)...)
	if err != nil {
		return out, err
	}

	var fwd *proxy.UDPForwarder
	var udpSink *net.UDPConn
	udpStop := make(chan struct{})
	var udpWG sync.WaitGroup
	if cfg.UDPSessions > 0 {
		udpSink, err = startUDPSink()
		if err != nil {
			_ = lp.Close()
			return out, err
		}
		fwd, err = proxy.NewUDP("127.0.0.1:0", udpSink.LocalAddr().String(), nil)
		if err != nil {
			_ = udpSink.Close()
			_ = lp.Close()
			return out, err
		}
		fwd.SetHoldBudget(budget)
	}

	smp := startSampler(budget, func() int {
		n := lp.TrackedSessions()
		if fwd != nil {
			n += fwd.ActivePeers()
		}
		return n
	})

	// Ramp: every session dials in, bounded by DialConcurrency.
	classSrc := rng.New(cfg.Seed).Split("class")
	classes := make([]sessionClass, cfg.TCPSessions)
	for i := range classes {
		classes[i] = classFor(classSrc, cfg)
	}
	rampStart := time.Now()
	clients := make([]*tcpLoadClient, cfg.TCPSessions)
	var setup atomic.Int64
	sem := make(chan struct{}, cfg.DialConcurrency)
	var dialWG sync.WaitGroup
	for i := 0; i < cfg.TCPSessions; i++ {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			sem <- struct{}{}
			c, err := h.dialRegistered(lp.Addr(), classes[i], i)
			<-sem
			if err != nil {
				return
			}
			clients[i] = c
			setup.Add(1)
		}(i)
	}
	fwdAddr := ""
	if fwd != nil {
		fwdAddr = fwd.Addr()
	}
	udpClients := make([]*net.UDPConn, 0, cfg.UDPSessions)
	for i := 0; i < cfg.UDPSessions; i++ {
		ra, err := net.ResolveUDPAddr("udp", fwdAddr)
		if err != nil {
			break
		}
		conn, err := net.DialUDP("udp", nil, ra)
		if err != nil {
			break
		}
		udpClients = append(udpClients, conn)
		_, _ = conn.Write([]byte("hello"))
		setup.Add(1)
	}
	dialWG.Wait()
	out.SetupSeconds = time.Since(rampStart).Seconds()
	if out.SetupSeconds > 0 {
		out.SessionsPerSec = float64(setup.Load()) / out.SetupSeconds
	}

	// UDP steady-state traffic plus the hold/verdict cycler.
	if fwd != nil {
		udpWG.Add(1)
		go h.udpCycler(fwd, rng.New(cfg.Seed).Split("udpverdict"), udpStop, &udpWG)
		for _, conn := range udpClients {
			udpWG.Add(1)
			go h.udpClient(conn, udpStop, &udpWG)
		}
	}

	// Measure phase: legit sessions sample latency, drop sessions
	// churn; stall sessions wait for their window.
	rec := &latencyRecorder{}
	var phaseWG sync.WaitGroup
	for _, c := range clients {
		if c == nil {
			continue
		}
		phaseWG.Add(1)
		go func(c *tcpLoadClient) {
			defer phaseWG.Done()
			switch c.class {
			case classLegit:
				h.legitBursts(c, cfg.TCPSessions, rec)
			case classDrop:
				h.dropChurn(c, lp.Addr())
			}
		}(c)
	}
	phaseWG.Wait()

	// Stall window: wedged-decision floods drive the global budget to
	// its ceiling so backpressure is observable.
	if cfg.StallWindow > 0 {
		floodStop := make(chan struct{})
		var floodWG sync.WaitGroup
		for _, c := range clients {
			if c == nil || c.class != classStall {
				continue
			}
			floodWG.Add(1)
			go func(c *tcpLoadClient) {
				defer floodWG.Done()
				h.stallFlood(c, floodStop)
			}(c)
		}
		time.Sleep(cfg.StallWindow)
		close(floodStop)
		floodWG.Wait()
	}

	// Teardown.
	close(h.stop)
	close(udpStop)
	udpWG.Wait()
	for _, c := range clients {
		if c != nil {
			_ = c.conn.Close()
		}
	}
	closeErr := lp.Close()
	if fwd != nil {
		out.UDPShed = fwd.BudgetShed()
		_ = fwd.Close()
	}
	if udpSink != nil {
		_ = udpSink.Close()
	}
	smp.close()

	h.fillMeasurements(&out, lp, smp, budget, baseline, rec.samples)
	return out, closeErr
}

// fillMeasurements folds the guard's final counters, the sampler
// peaks, budget state, and latency percentiles into the outcome
// (shared by both planes).
func (h *harness) fillMeasurements(out *Outcome, g *voiceguard.LiveGuard, smp *sampler, budget *proxy.HoldBudget, baseline, proxied []time.Duration) {
	st := g.Stats()
	out.BurstsHeld, out.BurstsReleased, out.BurstsDropped = st.CommandsHeld, st.CommandsReleased, st.CommandsDropped
	out.Reconnects = int(h.reconnects.Load())
	out.TrackedLeftover = g.TrackedSessions()
	smp.mu.Lock()
	out.HoldBytesPeak = smp.holdPeak
	out.BudgetUsedPeak = smp.budgetPeak
	out.HeapPeakBytes = smp.heapPeak
	out.PeakConcurrent = smp.concurrentPeak
	smp.mu.Unlock()

	out.WithinBudget = true
	if budget != nil {
		out.BudgetWaits = budget.Waits()
		out.WithinBudget = out.BudgetUsedPeak <= budget.Max()
		out.Backpressured = out.BudgetWaits > 0 || out.UDPShed > 0
	}

	out.BaselineP50Ms = percentileMs(baseline, 0.50)
	out.BaselineP99Ms = percentileMs(baseline, 0.99)
	out.ProxiedP50Ms = percentileMs(proxied, 0.50)
	out.ProxiedP99Ms = percentileMs(proxied, 0.99)
	if len(proxied) > 0 {
		added := out.ProxiedP99Ms - out.BaselineP99Ms -
			float64(h.cfg.DecisionMean)/float64(time.Millisecond)
		if added < 0 {
			added = 0
		}
		out.AddedP99Ms = added
	}
}
