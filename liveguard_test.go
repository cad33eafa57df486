package voiceguard

import (
	"context"
	"errors"
	"testing"
	"time"

	"voiceguard/internal/emul"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/trafficgen"
)

// liveFixture wires cloud ← guard ← speaker on loopback with a
// controllable decision channel.
type liveFixture struct {
	cloud    *emul.CloudServer
	guard    *LiveGuard
	verdicts chan bool
}

func newLiveFixture(t *testing.T, idleGap time.Duration) *liveFixture {
	t.Helper()
	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })

	verdicts := make(chan bool, 8)
	guard, err := StartLiveGuard("127.0.0.1:0", cloud.Addr(), func(ctx context.Context) bool {
		select {
		case v := <-verdicts:
			return v
		case <-ctx.Done():
			return false
		}
	}, idleGap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = guard.Close() })
	return &liveFixture{cloud: cloud, guard: guard, verdicts: verdicts}
}

// commandLengths is a marker-bearing Echo command phase: activation
// packet, p-138 marker within the first five, then upload records.
var commandLengths = []int{277, 138, 90, 113, 131, 1100, 1200, 1150}

// responseLengths is a response-phase spike: p-77/p-33 adjacent.
var responseLengths = []int{90, 77, 33, 162, 210, 350}

func waitStats(t *testing.T, g *LiveGuard, cond func(LiveGuardStats) bool) LiveGuardStats {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s := g.Stats(); cond(s) {
			return s
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stats condition never met: %+v", g.Stats())
	return LiveGuardStats{}
}

func TestLiveGuardReleasesLegitimateCommand(t *testing.T) {
	f := newLiveFixture(t, 300*time.Millisecond)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	f.verdicts <- true
	if err := speaker.SendPattern(commandLengths, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	// End-of-command frame so the cloud answers once released.
	if err := speaker.SendPattern([]int{60}, emul.MsgEnd); err != nil {
		t.Fatal(err)
	}
	frame, err := speaker.Await(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != emul.MsgResponse {
		t.Fatalf("frame = %c, want response", frame.Type)
	}
	stats := waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.CommandsReleased == 1 })
	if stats.CommandsHeld != 1 || stats.CommandsDropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if f.cloud.CompletedCommands() != 1 {
		t.Fatalf("cloud completed %d commands", f.cloud.CompletedCommands())
	}
}

func TestLiveGuardDropsMaliciousCommand(t *testing.T) {
	f := newLiveFixture(t, 300*time.Millisecond)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	f.verdicts <- false
	if err := speaker.SendPattern(commandLengths, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	if err := speaker.SendPattern([]int{60}, emul.MsgEnd); err != nil {
		t.Fatal(err)
	}
	waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.CommandsDropped == 1 })

	// The speaker keeps talking; the cloud aborts on the sequence gap.
	if err := speaker.SendHeartbeat(); err != nil {
		t.Fatal(err)
	}
	if _, err := speaker.Await(3 * time.Second); !errors.Is(err, emul.ErrSessionClosed) && err == nil {
		t.Fatalf("await after drop: %v, want session closed or reset", err)
	}
	if f.cloud.CompletedCommands() != 0 {
		t.Fatalf("dropped command executed: %d", f.cloud.CompletedCommands())
	}
}

func TestLiveGuardReleasesResponseSpikeWithoutQuery(t *testing.T) {
	f := newLiveFixture(t, 300*time.Millisecond)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	// A response-phase spike: the guard must classify and release it
	// without consulting the DecisionFunc (the verdicts channel stays
	// empty; a query would block forever).
	if err := speaker.SendPattern(responseLengths, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	stats := waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.NonCommands >= 1 })
	if stats.CommandsHeld != 0 {
		t.Fatalf("response spike triggered a decision query: %+v", stats)
	}
}

func TestLiveGuardIgnoresHeartbeats(t *testing.T) {
	f := newLiveFixture(t, 200*time.Millisecond)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	// Heartbeats are 41-byte application-data records; they must pass
	// straight through with no holding and get acknowledged.
	for i := 0; i < 3; i++ {
		if err := speaker.SendPattern([]int{trafficgen.HeartbeatLen}, emul.MsgHeartbeat); err != nil {
			t.Fatal(err)
		}
		frame, err := speaker.Await(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if frame.Type != emul.MsgAck {
			t.Fatalf("heartbeat reply = %c", frame.Type)
		}
		time.Sleep(250 * time.Millisecond) // separate spikes
	}
	stats := f.guard.Stats()
	if stats.CommandsHeld != 0 || stats.NonCommands != 0 {
		t.Fatalf("heartbeats disturbed the guard: %+v", stats)
	}
}

func TestLiveGuardShortSpikeReleasedOnIdle(t *testing.T) {
	f := newLiveFixture(t, 200*time.Millisecond)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	// Two records then silence: below the classification window, so
	// the idle timer must release the held bytes.
	if err := speaker.SendPattern([]int{90, 101}, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.NonCommands >= 1 })
}

func TestLiveGuardValidation(t *testing.T) {
	if _, err := StartLiveGuard("127.0.0.1:0", "127.0.0.1:1", nil, time.Second); err == nil {
		t.Fatal("nil decision accepted")
	}
}

// waitFor polls cond for up to three seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendCommand sends one marker-bearing Echo command and its end frame.
func sendCommand(t *testing.T, speaker *emul.SpeakerClient) {
	t.Helper()
	if err := speaker.SendPattern(commandLengths, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	if err := speaker.SendPattern([]int{60}, emul.MsgEnd); err != nil {
		t.Fatal(err)
	}
}

// A second command recognized while the first is still being decided
// gets its own query, and the first command's release must not carry
// it to the cloud: its bytes stay held until its own verdict.
func TestLiveGuardSecondCommandWaitsForItsOwnVerdict(t *testing.T) {
	const idle = 100 * time.Millisecond
	f := newLiveFixture(t, idle)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	sendCommand(t, speaker)
	waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.CommandsHeld == 1 })
	time.Sleep(2 * idle) // the next command is a new spike
	sendCommand(t, speaker)
	time.Sleep(idle / 2)

	f.verdicts <- true // the first command is legitimate
	waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.CommandsReleased == 1 })
	waitFor(t, "first command completing", func() bool { return f.cloud.CompletedCommands() >= 1 })
	time.Sleep(2 * idle)
	if got := f.cloud.CompletedCommands(); got != 1 {
		t.Fatalf("cloud completed %d commands with the second still pending, want 1", got)
	}
	if got := f.guard.Stats().CommandsHeld; got != 2 {
		t.Fatalf("CommandsHeld = %d, want 2: the second command never got its own query", got)
	}

	f.verdicts <- true
	waitFor(t, "second command completing", func() bool { return f.cloud.CompletedCommands() == 2 })
}

// A short non-command spike that ends while a command's verdict is
// pending is released on idle, but its release must not flush the
// held command ahead of that verdict.
func TestLiveGuardShortSpikeDoesNotReleasePendingCommand(t *testing.T) {
	const idle = 100 * time.Millisecond
	f := newLiveFixture(t, idle)
	speaker, err := emul.DialSpeaker(f.guard.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	sendCommand(t, speaker)
	waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.CommandsHeld == 1 })
	time.Sleep(2 * idle)
	if err := speaker.SendPattern([]int{90, 101}, emul.MsgCommand); err != nil {
		t.Fatal(err)
	}
	waitStats(t, f.guard, func(s LiveGuardStats) bool { return s.NonCommands == 1 })
	time.Sleep(2 * idle)
	if got := f.cloud.CompletedCommands(); got != 0 {
		t.Fatalf("cloud completed %d commands before any verdict", got)
	}

	f.verdicts <- true
	waitFor(t, "command completing after its verdict", func() bool { return f.cloud.CompletedCommands() == 1 })
}

// A verdict that arrives after the hold deadline already resolved the
// hold resolves nothing a second time: holds = releases + drops.
func TestLiveGuardLateVerdictAfterDeadlineCountedOnce(t *testing.T) {
	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	unwedge := make(chan struct{})
	g, err := StartLiveGuard("127.0.0.1:0", cloud.Addr(), func(ctx context.Context) bool {
		select {
		case <-unwedge:
			return true
		case <-ctx.Done():
			return false
		}
	}, 100*time.Millisecond, WithHoldDeadline(150*time.Millisecond, guard.DegradedFailClosed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	before := proxyOutcomes()

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
	close(unwedge) // the late verdict
	waitStats(t, g, func(s LiveGuardStats) bool { return s.CommandsReleased == 1 })

	after := proxyOutcomes()
	holds := after[0] - before[0]
	resolved := (after[1] - before[1]) + (after[2] - before[2])
	if holds != 1 || resolved != holds {
		t.Fatalf("holds %d, releases + drops %d: want one hold resolved once", holds, resolved)
	}
	if got := cloud.CompletedCommands(); got != 0 {
		t.Fatalf("late verdict released a command the deadline dropped: %d", got)
	}
}

// proxyOutcomes reads the transport's hold, release, and drop totals.
func proxyOutcomes() [3]int64 {
	var out [3]int64
	for _, c := range metrics.Default.Snapshot().Counters {
		switch c.Name {
		case "proxy_holds_total":
			out[0] = c.Value
		case "proxy_releases_total":
			out[1] = c.Value
		case "proxy_drops_total":
			out[2] = c.Value
		}
	}
	return out
}
