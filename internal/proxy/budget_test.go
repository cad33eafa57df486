package proxy

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHoldBudgetReserveCredit(t *testing.T) {
	b := NewHoldBudget(100)
	if !b.tryReserve(60) || b.Used() != 60 {
		t.Fatalf("first reserve failed, used = %d", b.Used())
	}
	if !b.tryReserve(40) || b.Used() != 100 {
		t.Fatalf("exact-fit reserve failed, used = %d", b.Used())
	}
	if b.tryReserve(1) {
		t.Fatal("reserve over budget succeeded")
	}
	b.credit(100)
	if b.Used() != 0 {
		t.Fatalf("used after full credit = %d", b.Used())
	}
	// A chunk larger than the whole budget is admitted only when the
	// budget is idle, so one oversized burst cannot wedge forever.
	if !b.tryReserve(500) {
		t.Fatal("oversized reserve rejected on an empty budget")
	}
	if b.tryReserve(1) {
		t.Fatal("reserve succeeded on an overcommitted budget")
	}
	b.credit(1 << 20) // over-credit floors at zero
	if b.Used() != 0 {
		t.Fatalf("used after over-credit = %d", b.Used())
	}
	if NewHoldBudget(0) != nil {
		t.Fatal("zero-byte budget should be nil (unlimited)")
	}
}

func TestHoldBudgetBackpressureStallsAndResumes(t *testing.T) {
	upstream := startEchoServer(t)
	budget := NewHoldBudget(4096)
	held := make(chan *Session, 16)
	p := newProxy(t, upstream,
		WithHoldBudget(budget),
		WithTap(func(s *Session, data []byte) {
			s.Hold()
			select {
			case held <- s:
			default:
			}
		}))
	client := dialClient(t, p.Addr())

	// Fill the budget, then send one more chunk: it must stall the
	// read pump rather than grow hold memory past the ceiling. The
	// fill is waited on first — written back-to-back, the kernel
	// would coalesce both writes into one oversized chunk, which the
	// idle-budget admission rule lets straight through.
	if _, err := client.Write(bytes.Repeat([]byte("v"), 4096)); err != nil {
		t.Fatal(err)
	}
	var s *Session
	select {
	case s = <-held:
	case <-time.After(3 * time.Second):
		t.Fatal("tap never held")
	}
	waitFor(t, "budget to fill", func() bool { return budget.Used() == 4096 })
	if _, err := client.Write(bytes.Repeat([]byte("w"), 2048)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pump to stall on the budget", func() bool { return budget.Waits() > 0 })
	if got := budget.Used(); got > 4096 {
		t.Fatalf("budget used = %d, want <= 4096", got)
	}
	if got := s.QueuedBytes(); got > 4096 {
		t.Fatalf("queued = %d, want <= 4096", got)
	}

	// The verdict credits the budget and ends the hold; the stalled
	// chunk flows straight upstream and the echo completes.
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	readN(t, client, 4096+2048)
	waitFor(t, "budget to drain", func() bool { return budget.Used() == 0 })
}

func TestHoldBudgetSharedAcrossSessions(t *testing.T) {
	upstream := startEchoServer(t)
	budget := NewHoldBudget(4096)
	held := make(chan *Session, 16)
	p := newProxy(t, upstream,
		WithHoldBudget(budget),
		WithTap(func(s *Session, data []byte) {
			wasHolding := s.Holding()
			s.Hold()
			if !wasHolding {
				held <- s
			}
		}))

	// Session A fills the whole budget.
	clientA := dialClient(t, p.Addr())
	if _, err := clientA.Write(bytes.Repeat([]byte("a"), 4096)); err != nil {
		t.Fatal(err)
	}
	var sessA *Session
	select {
	case sessA = <-held:
	case <-time.After(3 * time.Second):
		t.Fatal("session A never held")
	}
	waitFor(t, "A to fill the budget", func() bool { return budget.Used() == 4096 })

	// Session B's first held chunk finds the shared budget exhausted
	// and stalls, even though B's own queue is empty.
	baseWaits := budget.Waits()
	clientB := dialClient(t, p.Addr())
	if _, err := clientB.Write(bytes.Repeat([]byte("b"), 1024)); err != nil {
		t.Fatal(err)
	}
	var sessB *Session
	select {
	case sessB = <-held:
	case <-time.After(3 * time.Second):
		t.Fatal("session B never held")
	}
	waitFor(t, "B to stall on A's bytes", func() bool { return budget.Waits() > baseWaits })
	if got := sessB.QueuedBytes(); got != 0 {
		t.Fatalf("B queued %d bytes while the budget was full", got)
	}

	// Releasing A credits the budget; B's pump wakes and queues.
	if err := sessA.Release(); err != nil {
		t.Fatal(err)
	}
	readN(t, clientA, 4096)
	waitFor(t, "B to queue after the credit", func() bool { return sessB.QueuedBytes() == 1024 })
	if err := sessB.Release(); err != nil {
		t.Fatal(err)
	}
	readN(t, clientB, 1024)
}

func TestCloseUnblocksBudgetStalledPump(t *testing.T) {
	upstream := startEchoServer(t)
	budget := NewHoldBudget(1024)
	p := newProxy(t, upstream,
		WithHoldBudget(budget),
		WithTap(func(s *Session, data []byte) { s.Hold() }))
	client := dialClient(t, p.Addr())

	if _, err := client.Write(bytes.Repeat([]byte("x"), 1024)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "budget to fill", func() bool { return budget.Used() == 1024 })
	if _, err := client.Write(bytes.Repeat([]byte("y"), 1024)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pump to stall on the budget", func() bool { return budget.Waits() > 0 })

	// Close must tear the stalled session down, not deadlock behind
	// it, and the dying session must hand its bytes back.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := budget.Used(); got != 0 {
		t.Fatalf("budget used after close = %d, want 0", got)
	}
}

func TestAcceptShardsServeConcurrentDials(t *testing.T) {
	upstream := startEchoServer(t)
	p := newProxy(t, upstream, WithAcceptShards(4))

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", p.Addr(), 3*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			msg := []byte(fmt.Sprintf("session-%02d", i))
			if _, err := conn.Write(msg); err != nil {
				errs <- err
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			buf := make([]byte, len(msg))
			if _, err := conn.Read(buf); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, msg) {
				errs <- fmt.Errorf("echo = %q, want %q", buf, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUDPBudgetShedsWhenExhausted(t *testing.T) {
	upstream := startUDPEcho(t)
	f, err := NewUDP("127.0.0.1:0", upstream, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	budget := NewHoldBudget(600)
	f.SetHoldBudget(budget)

	conn, err := net.Dial("udp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	f.Hold()
	payload := bytes.Repeat([]byte("d"), 256)
	for i := 0; i < 4; i++ {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	// 4x256B against a 600B budget: two queue, two shed. UDP has no
	// window to close, so loss is the backpressure.
	waitFor(t, "two datagrams to shed", func() bool { return f.BudgetShed() == 2 })
	if got := f.QueuedDatagrams(); got != 2 {
		t.Fatalf("queued = %d, want 2", got)
	}
	if got := budget.Used(); got != 512 {
		t.Fatalf("budget used = %d, want 512", got)
	}

	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if got := budget.Used(); got != 0 {
		t.Fatalf("budget used after release = %d, want 0", got)
	}
	// The two queued datagrams come back from the echo upstream.
	buf := make([]byte, 1024)
	for i := 0; i < 2; i++ {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("read released datagram %d: %v", i, err)
		}
	}
}

// TestUDPMultiSessionHoldReleaseDrop churns many concurrent UDP
// clients through hold/release/drop cycles while traffic is in
// flight — the race-detector workout for the forwarder's shared
// queue, budget, and peer-table state.
func TestUDPMultiSessionHoldReleaseDrop(t *testing.T) {
	upstream := startUDPEcho(t)
	f, err := NewUDP("127.0.0.1:0", upstream, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := NewHoldBudget(8 << 10)
	f.SetHoldBudget(budget)

	const clients = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("udp", f.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			payload := bytes.Repeat([]byte("q"), 128)
			buf := make([]byte, 1024)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = conn.Write(payload)
				_ = conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
				_, _ = conn.Read(buf)
			}
		}()
	}

	// The verdict loop: hold, let traffic pile up, then release or
	// drop — alternating — while the clients keep sending.
	for cycle := 0; cycle < 10; cycle++ {
		f.Hold()
		time.Sleep(20 * time.Millisecond)
		if cycle%2 == 0 {
			if err := f.Release(); err != nil {
				t.Fatalf("cycle %d release: %v", cycle, err)
			}
		} else {
			f.Drop()
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.QueuedDatagrams(); got != 0 {
		t.Fatalf("queued after close = %d, want 0", got)
	}
	if got := budget.Used(); got != 0 {
		t.Fatalf("budget used after close = %d, want 0", got)
	}
	if f.ActivePeers() != 0 {
		t.Fatalf("active peers after close = %d, want 0", f.ActivePeers())
	}
}
