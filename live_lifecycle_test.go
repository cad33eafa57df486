package voiceguard

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voiceguard/internal/emul"
)

// startEchoUpstream runs a plain TCP echo server for StartLiveProxy tests.
func startEchoUpstream(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := conn.Read(buf)
					if n > 0 {
						if _, werr := conn.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		_ = lis.Close()
		wg.Wait()
	})
	return lis.Addr().String()
}

func waitZero(t *testing.T, what string, count func() int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s never drained: %d left", what, count())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveProxySessionStateFreedOnDisconnect is the regression test
// for the burst-state leak: per-session state (the burst separator
// included) must die with the transport session instead of
// accumulating in a proxy-global map for every speaker that ever
// connected.
func TestLiveProxySessionStateFreedOnDisconnect(t *testing.T) {
	upstream := startEchoUpstream(t)
	lp, err := StartLiveProxy("127.0.0.1:0", upstream,
		func(ctx context.Context) bool { return true },
		10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lp.Close() })

	const churn = 20
	for i := 0; i < churn; i++ {
		conn, err := net.DialTimeout("tcp", lp.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("wake word burst")); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("echo after release: %v", err)
		}
		_ = conn.Close()
	}
	waitZero(t, "proxy session state", lp.TrackedSessions)
	if got := lp.Stats().CommandsHeld; got < churn {
		t.Fatalf("held %d bursts, want >= %d", got, churn)
	}
}

// TestLiveGuardSessionStateReapedOnDisconnect is the same leak
// observable on the guard: its per-connection recognizer entries must
// be reaped when the speaker disconnects, not kept forever.
func TestLiveGuardSessionStateReapedOnDisconnect(t *testing.T) {
	f := newLiveFixture(t, 300*time.Millisecond)
	const churn = 8
	for i := 0; i < churn; i++ {
		speaker, err := emul.DialSpeaker(f.guard.Addr())
		if err != nil {
			t.Fatal(err)
		}
		f.verdicts <- true
		if err := speaker.SendPattern(commandLengths, emul.MsgCommand); err != nil {
			t.Fatal(err)
		}
		if err := speaker.SendPattern([]int{60}, emul.MsgEnd); err != nil {
			t.Fatal(err)
		}
		if _, err := speaker.Await(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		_ = speaker.Close()
	}
	waitZero(t, "guard session state", f.guard.TrackedSessions)
	if got := f.guard.Stats().CommandsReleased; got != churn {
		t.Fatalf("released %d commands, want %d", got, churn)
	}
}

// TestLiveProxyCloseDuringBurstChurn closes the proxy while speakers
// are mid-burst and decisions are in flight — the regression test for
// the Close-vs-tap WaitGroup race (wg.Add concurrent with wg.Wait).
// Run it under -race: pre-fix code trips the detector or panics with
// "WaitGroup is reused before previous Wait has returned".
func TestLiveProxyCloseDuringBurstChurn(t *testing.T) {
	upstream := startEchoUpstream(t)
	lp, err := StartLiveProxy("127.0.0.1:0", upstream,
		func(ctx context.Context) bool {
			select {
			case <-time.After(2 * time.Millisecond):
				return true
			case <-ctx.Done():
				return false
			}
		},
		time.Millisecond) // every chunk opens a burst: maximum tap pressure
	if err != nil {
		t.Fatal(err)
	}

	const speakers = 8
	var wg sync.WaitGroup
	for i := 0; i < speakers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", lp.Addr(), 2*time.Second)
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				if _, err := conn.Write([]byte("burst")); err != nil {
					return // proxy closed underneath us: expected
				}
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}

	time.Sleep(30 * time.Millisecond) // let taps and decisions pile up
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := lp.TrackedSessions(); got != 0 {
		t.Fatalf("sessions after close = %d, want 0", got)
	}
}

// TestLiveGuardCloseDuringCommandChurn is the same Close-vs-tap race
// on the guard plane, where the tap also creates per-session state
// and spawns watcher goroutines.
func TestLiveGuardCloseDuringCommandChurn(t *testing.T) {
	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	g, err := StartLiveGuard("127.0.0.1:0", cloud.Addr(),
		func(ctx context.Context) bool {
			select {
			case <-time.After(2 * time.Millisecond):
				return true
			case <-ctx.Done():
				return false
			}
		},
		50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	const speakers = 6
	var wg sync.WaitGroup
	for i := 0; i < speakers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			speaker, err := emul.DialSpeaker(g.Addr())
			if err != nil {
				return
			}
			defer speaker.Close()
			for {
				if err := speaker.SendPattern(commandLengths, emul.MsgCommand); err != nil {
					return // guard closed underneath us: expected
				}
				if err := speaker.SendPattern([]int{60}, emul.MsgEnd); err != nil {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	time.Sleep(40 * time.Millisecond)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := g.TrackedSessions(); got != 0 {
		t.Fatalf("tracked sessions after close = %d, want 0", got)
	}
}

// TestSpeakerAddrFlowsToDecision pins the context contract load
// harnesses rely on: the DecisionFunc can recover the speaker's
// remote address via SpeakerAddr.
func TestSpeakerAddrFlowsToDecision(t *testing.T) {
	upstream := startEchoUpstream(t)
	got := make(chan string, 1)
	lp, err := StartLiveProxy("127.0.0.1:0", upstream,
		func(ctx context.Context) bool {
			select {
			case got <- SpeakerAddr(ctx):
			default:
			}
			return true
		},
		10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lp.Close() })

	conn, err := net.DialTimeout("tcp", lp.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("who am I")); err != nil {
		t.Fatal(err)
	}
	select {
	case addr := <-got:
		if addr != conn.LocalAddr().String() {
			t.Fatalf("SpeakerAddr = %q, want %q", addr, conn.LocalAddr().String())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("decision never ran")
	}
	if SpeakerAddr(context.Background()) != "" {
		t.Fatal("SpeakerAddr on a bare context should be empty")
	}
}

// A new burst that starts while the previous one is still held is a
// command of its own: it gets its own DecisionFunc call, and the first
// verdict releases only the first burst.
func TestLiveProxyNewBurstWhileHeldGetsOwnDecision(t *testing.T) {
	const idle = 50 * time.Millisecond
	var calls atomic.Int32
	verdicts := make(chan bool, 2)
	lp, err := StartLiveProxy("127.0.0.1:0", startEchoUpstream(t),
		func(ctx context.Context) bool {
			calls.Add(1)
			select {
			case v := <-verdicts:
				return v
			case <-ctx.Done():
				return false
			}
		}, idle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lp.Close() })

	conn, err := net.DialTimeout("tcp", lp.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("first burst")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first decision", func() bool { return calls.Load() == 1 })
	time.Sleep(2 * idle)
	if _, err := conn.Write([]byte("second burst")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(idle)

	verdicts <- true
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := make([]byte, len("first burst"))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != "first burst" {
		t.Fatalf("first release: %q, %v", got, err)
	}
	waitFor(t, "second burst's own decision", func() bool { return calls.Load() == 2 })
	_ = conn.SetReadDeadline(time.Now().Add(2 * idle))
	if n, _ := conn.Read(got); n > 0 {
		t.Fatalf("second burst reached the upstream before its verdict: %q", got[:n])
	}

	verdicts <- true
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got = make([]byte, len("second burst"))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != "second burst" {
		t.Fatalf("second release: %q, %v", got, err)
	}
}
