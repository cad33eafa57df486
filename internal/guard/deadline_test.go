package guard

import (
	"testing"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// holdEnd is one Release or Drop the guard made on its sink.
type holdEnd struct {
	release bool
	at      time.Time
}

// fakeSink is a HoldSink that records when and how each hold ends.
type fakeSink struct {
	clock   *simtime.Sim
	holding bool
	holds   int
	offset  int // stream offset of the next held byte
	ends    []holdEnd
	partial int // ReleaseTo calls
}

func (s *fakeSink) HoldCommand(trace.CommandID) int {
	if !s.holding {
		s.holding = true
		s.holds++
	}
	mark := s.offset
	s.offset += 100 // each command holds 100 bytes
	return mark
}

func (s *fakeSink) ReleaseTo(int) error { s.partial++; return nil }

func (s *fakeSink) Release() error { s.end(true); return nil }

func (s *fakeSink) Drop() int { s.end(false); return 0 }

func (s *fakeSink) end(release bool) {
	s.holding = false
	s.ends = append(s.ends, holdEnd{release: release, at: s.clock.Now()})
}

// verdicts is a decision method whose verdicts the test delivers.
type verdicts struct {
	clock   *simtime.Sim
	pending []func(decision.Result)
}

func (*verdicts) Name() string { return "test-verdicts" }

func (v *verdicts) Check(_ decision.Request, done func(decision.Result)) {
	v.pending = append(v.pending, done)
}

// deliver answers the oldest pending query now.
func (v *verdicts) deliver(t *testing.T, legit bool) {
	t.Helper()
	if len(v.pending) == 0 {
		t.Fatal("no query pending")
	}
	done := v.pending[0]
	v.pending = v.pending[1:]
	done(decision.Result{Legitimate: legit, At: v.clock.Now()})
}

// deadlineFixture is a GHM guard on a simulated clock whose holds land
// in a fakeSink: every packet after an idle gap is a command, held
// until the test delivers its verdict.
type deadlineFixture struct {
	clock  *simtime.Sim
	sink   *fakeSink
	v      *verdicts
	guard  *Guard
	events []Event
}

func newDeadlineFixture(d time.Duration, policy DegradedPolicy) *deadlineFixture {
	clock := simtime.NewSim(epoch)
	f := &deadlineFixture{clock: clock, sink: &fakeSink{clock: clock}, v: &verdicts{clock: clock}}
	f.guard = New(clock, recognize.NewGHM(trafficgen.GHMAddr), f.v, "ghm")
	f.guard.Tracer = trace.New(64)
	f.guard.Sink, f.guard.HoldDeadline, f.guard.Degraded = f.sink, d, policy
	f.guard.OnEvent(func(e Event) { f.events = append(f.events, e) })
	return f
}

// command feeds one command packet at at.
func (f *deadlineFixture) command(at time.Time) {
	f.clock.AdvanceTo(at)
	f.guard.Feed(&pcap.Packet{
		Time: at, SrcIP: trafficgen.GHMAddr, DstIP: pcap.IPv4{142, 250, 0, 1},
		DstPort: trafficgen.TLSPort, Proto: pcap.TCP, Len: 200,
	})
}

// wantEnds checks the sink's hold ends so far.
func (f *deadlineFixture) wantEnds(t *testing.T, want ...holdEnd) {
	t.Helper()
	if len(f.sink.ends) != len(want) {
		t.Fatalf("hold ends %+v, want %+v", f.sink.ends, want)
	}
	for i := range want {
		if f.sink.ends[i].release != want[i].release || !f.sink.ends[i].at.Equal(want[i].at) {
			t.Fatalf("hold ends %+v, want %+v", f.sink.ends, want)
		}
	}
}

const testDeadline = 5 * time.Second

// Fail-open: a hold with no verdict is released exactly HoldDeadline
// after it began, not a moment earlier.
func TestHoldDeadlineReleases(t *testing.T) {
	f := newDeadlineFixture(testDeadline, DegradedFailOpen)
	expired := mHoldExpired.Value()
	f.command(epoch)
	f.clock.AdvanceTo(epoch.Add(testDeadline - time.Nanosecond))
	f.wantEnds(t)
	f.clock.AdvanceTo(epoch.Add(testDeadline))
	f.wantEnds(t, holdEnd{release: true, at: epoch.Add(testDeadline)})
	if got := mHoldExpired.Value() - expired; got != 1 {
		t.Fatalf("expiry counter advanced by %d, want 1", got)
	}
}

// Fail-closed: the same wedge drops the hold at the deadline.
func TestHoldDeadlineDrops(t *testing.T) {
	f := newDeadlineFixture(testDeadline, DegradedFailClosed)
	f.command(epoch)
	f.clock.AdvanceTo(epoch.Add(testDeadline))
	f.wantEnds(t, holdEnd{release: false, at: epoch.Add(testDeadline)})
}

// A verdict before the deadline ends the hold and disarms the timer:
// nothing is left scheduled, and nothing fires later.
func TestHoldDeadlineVerdictWins(t *testing.T) {
	f := newDeadlineFixture(testDeadline, DegradedFailClosed)
	f.command(epoch)
	f.clock.AdvanceTo(epoch.Add(testDeadline / 2))
	f.v.deliver(t, true)
	f.wantEnds(t, holdEnd{release: true, at: epoch.Add(testDeadline / 2)})
	if n := f.clock.Pending(); n != 0 {
		t.Fatalf("%d timers still armed after the verdict", n)
	}
	f.clock.AdvanceTo(epoch.Add(2 * testDeadline))
	f.wantEnds(t, holdEnd{release: true, at: epoch.Add(testDeadline / 2)})
}

// The deadline runs from the first episode of a hold: a second command
// that joins the hold does not push it out, and both commands'
// verdicts, once they come, move no bytes.
func TestHoldDeadlineAnchoredAtHoldStart(t *testing.T) {
	f := newDeadlineFixture(testDeadline, DegradedFailClosed)
	f.command(epoch)
	f.command(epoch.Add(2 * time.Second)) // queued behind the first query
	if f.sink.holds != 1 {
		t.Fatalf("sink saw %d holds, want the second command to join the first", f.sink.holds)
	}
	f.clock.AdvanceTo(epoch.Add(testDeadline - time.Nanosecond))
	f.wantEnds(t)
	f.clock.AdvanceTo(epoch.Add(testDeadline))
	dropped := holdEnd{release: false, at: epoch.Add(testDeadline)}
	f.wantEnds(t, dropped)

	f.v.deliver(t, true) // the first query, then the queued one
	f.v.deliver(t, true)
	f.wantEnds(t, dropped)
	if f.sink.partial != 0 {
		t.Fatalf("late verdicts released part of a resolved hold %d times", f.sink.partial)
	}
}

// Each hold gets its own deadline, whether the one before it ended by
// a verdict or by expiry.
func TestHoldDeadlineFreshForNextHold(t *testing.T) {
	f := newDeadlineFixture(testDeadline, DegradedFailOpen)
	f.command(epoch)
	f.clock.AdvanceTo(epoch.Add(time.Second))
	f.v.deliver(t, true)
	first := holdEnd{release: true, at: epoch.Add(time.Second)}

	second := epoch.Add(3 * time.Second) // its hold expires with no verdict
	f.command(second)
	f.clock.AdvanceTo(second.Add(testDeadline - time.Nanosecond))
	f.wantEnds(t, first)
	f.clock.AdvanceTo(second.Add(testDeadline))
	expired := holdEnd{release: true, at: second.Add(testDeadline)}
	f.wantEnds(t, first, expired)
	f.v.deliver(t, false) // late: moves no bytes

	third := second.Add(testDeadline + 2*time.Second)
	f.command(third)
	f.clock.AdvanceTo(third.Add(testDeadline - time.Nanosecond))
	f.wantEnds(t, first, expired)
	f.clock.AdvanceTo(third.Add(testDeadline))
	f.wantEnds(t, first, expired, holdEnd{release: true, at: third.Add(testDeadline)})
	if f.sink.holds != 3 {
		t.Fatalf("sink saw %d holds, want 3", f.sink.holds)
	}
}

// With no HoldDeadline the guard arms no timer: a hold waits for its
// verdict however long that takes.
func TestNoHoldDeadlineWhenZero(t *testing.T) {
	f := newDeadlineFixture(0, DegradedFailClosed)
	f.command(epoch)
	if n := f.clock.Pending(); n != 0 || f.guard.holdTimer != nil {
		t.Fatalf("%d timers armed, hold timer %v: want none", n, f.guard.holdTimer)
	}
	f.clock.AdvanceTo(epoch.Add(24 * time.Hour))
	f.wantEnds(t)
	f.v.deliver(t, false)
	f.wantEnds(t, holdEnd{release: false, at: epoch.Add(24 * time.Hour)})
}

// A verdict that arrives after the deadline resolved the hold moves no
// bytes: the hold ends once, and the command is still reported once,
// with the verdict it got.
func TestLateVerdictAfterDeadlineCountedOnce(t *testing.T) {
	f := newDeadlineFixture(testDeadline, DegradedFailClosed)
	f.command(epoch)
	f.clock.AdvanceTo(epoch.Add(testDeadline + time.Second))
	f.v.deliver(t, true)
	f.wantEnds(t, holdEnd{release: false, at: epoch.Add(testDeadline)})
	if f.sink.holds != 1 || f.sink.partial != 0 {
		t.Fatalf("holds %d, partial releases %d: want one hold, none", f.sink.holds, f.sink.partial)
	}
	if len(f.events) != 1 || !f.events[0].Released {
		t.Fatalf("events %+v, want the one late release", f.events)
	}
}
