package voiceguard

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/emul"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/proxy"
)

// wedged is a DecisionFunc that never delivers a verdict — the
// crashed-callback case the hold-deadline exists for. It unblocks
// only when the proxy shuts down, so Close() can still join the
// adjudication goroutine.
func wedged(ctx context.Context) bool {
	<-ctx.Done()
	return false
}

// echoUpstream runs a byte-echo server for StartLiveProxy tests.
func echoUpstream(t *testing.T) string {
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
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = lis.Close()
		wg.Wait()
	})
	return lis.Addr().String()
}

// Acceptance regression: a wedged decision callback on the live proxy
// cannot hold a session forever. Under a fail-open policy the
// hold-deadline releases the held burst, so the upstream echo comes
// back even though no verdict ever arrives.
func TestLiveProxyWedgedDecisionReleasesAtDeadline(t *testing.T) {
	lp, err := StartLiveProxy("127.0.0.1:0", echoUpstream(t), wedged, 200*time.Millisecond,
		WithHoldDeadline(150*time.Millisecond, guard.DegradedFailOpen))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lp.Close() })

	client, err := net.DialTimeout("tcp", lp.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	msg := []byte("no verdict will ever come")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatalf("held bytes never released: %v", err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echoed %q, want %q", buf, msg)
	}
}

// Same wedge under fail-closed: the deadline drops the held command,
// the cloud never executes it, and the session is no longer holding —
// blocked, not stuck.
func TestLiveGuardWedgedDecisionDropsAtDeadline(t *testing.T) {
	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })

	g, err := StartLiveGuard("127.0.0.1:0", cloud.Addr(), wedged, 300*time.Millisecond,
		WithHoldDeadline(400*time.Millisecond, guard.DegradedFailClosed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })

	speaker, err := emul.DialSpeaker(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	if err := speaker.SendPattern(commandLengths, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	if err := speaker.SendPattern([]int{60}, emul.MsgEnd); err != nil {
		t.Fatal(err)
	}
	waitStats(t, g, func(s LiveGuardStats) bool { return s.CommandsHeld == 1 })

	// Wait out the deadline, then verify every session resolved its
	// hold without a verdict ever arriving.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		holding := false
		for _, s := range g.tcp.Sessions() {
			if s.Holding() {
				holding = true
			}
		}
		if !holding {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, s := range g.tcp.Sessions() {
		if s.Holding() {
			t.Fatal("session still holding long after the hold-deadline")
		}
	}
	if got := cloud.CompletedCommands(); got != 0 {
		t.Fatalf("fail-closed deadline executed the command anyway: %d", got)
	}
}

// Every hold ends in exactly one proxy_outcomes child: after a
// fail-closed expiry the children grow by as much as
// proxy_holds_total, with no extra child for the expiry itself.
func TestLiveGuardDeadlineOutcomesPartitionHolds(t *testing.T) {
	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	g, err := StartLiveGuard("127.0.0.1:0", cloud.Addr(), wedged, 100*time.Millisecond,
		WithHoldDeadline(150*time.Millisecond, guard.DegradedFailClosed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	holds0, outcomes0 := holdOutcomes()

	speaker, err := emul.DialSpeaker(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()
	sendCommand(t, speaker)
	waitStats(t, g, func(s LiveGuardStats) bool { return s.CommandsHeld == 1 })
	waitFor(t, "hold deadline", func() bool {
		for _, s := range g.tcp.Sessions() {
			if s.Holding() {
				return false
			}
		}
		return true
	})

	holds1, outcomes1 := holdOutcomes()
	if holds, outcomes := holds1-holds0, outcomes1-outcomes0; holds != 1 || outcomes != holds {
		t.Fatalf("holds %d, proxy_outcomes %d: want one hold in one outcome", holds, outcomes)
	}
}

// holdOutcomes reads proxy_holds_total and the sum of the
// proxy_outcomes children.
func holdOutcomes() (holds, outcomes int64) {
	for _, c := range metrics.Default.Snapshot().Counters {
		switch c.Name {
		case "proxy_holds_total":
			holds = c.Value
		case proxy.MetricOutcomes:
			outcomes += c.Value
		}
	}
	return holds, outcomes
}
