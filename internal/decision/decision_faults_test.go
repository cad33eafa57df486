package decision

import (
	"testing"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/faults"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/push"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
	"voiceguard/internal/trace"
)

// withFaults installs a fault plan on the fixture's broker.
func (f *houseFixture) withFaults(p faults.Profile) {
	f.broker.SetFaults(faults.NewPlan(p, f.clock, rng.New(23).Split("faults")))
}

// addOffline registers a second, unreachable device.
func (f *houseFixture) addOffline(t *testing.T, id string) {
	t.Helper()
	pos := floorplan.Position{Floor: 0, At: geom.Point{X: 4, Y: 3}}
	if err := f.broker.Register(&push.Device{
		ID:       id,
		Scanner:  ble.NewScanner(f.model, radio.Pixel4a, f.root.Split("scan-"+id)),
		Position: func() floorplan.Position { return pos },
		Offline:  true,
	}); err != nil {
		t.Fatal(err)
	}
}

// replyArrival measures, on a throwaway fixture with the given seed,
// when the single device's reply lands relative to the request — so a
// second fixture with the same seed can pin its timeout to that exact
// simulated instant.
func replyArrival(t *testing.T, seed int64) time.Duration {
	t.Helper()
	f := newHouseFixture(t, seed)
	var at time.Time
	if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(r push.Reply) { at = r.At }, push.RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if at.IsZero() {
		t.Fatal("probe reply never arrived")
	}
	return at.Sub(epoch)
}

// Regression for the reply-vs-timeout race: when the reply lands at
// the very simulated instant the timeout fires, exactly one verdict
// may be produced — and it is the timeout's, since the event queue
// runs same-instant events in scheduling order. runCheck fails the
// test on a double-delivered verdict.
func TestSingleVerdictWhenReplyRacesTimeout(t *testing.T) {
	const seed = 31
	arrival := replyArrival(t, seed)

	f := newHouseFixture(t, seed)
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}} // living room: the reply would pass
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
		Timeout: arrival, // timeout fires at the reply's exact instant
	}
	got := runCheck(t, f, m)
	if got.Legitimate {
		t.Fatalf("late reply overturned the timeout verdict: %+v", got)
	}
	if got.Reason != ReasonNoReply {
		t.Fatalf("reason = %v, want the timeout verdict (%v)", got.Reason, ReasonNoReply)
	}
	if want := epoch.Add(arrival); !got.At.Equal(want) {
		t.Fatalf("verdict at %v, want %v", got.At, want)
	}
}

// A reply arriving strictly after the timeout must likewise be
// discarded without a second verdict.
func TestLateReplyAfterTimeoutIgnored(t *testing.T) {
	const seed = 32
	arrival := replyArrival(t, seed)

	f := newHouseFixture(t, seed)
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}}
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
		Timeout: arrival - time.Millisecond,
	}
	got := runCheck(t, f, m)
	if got.Legitimate {
		t.Fatalf("reply after the timeout overturned the verdict: %+v", got)
	}
}

// Regression for the duplicate double-decrement: a duplicated reply
// used to decrement the pending count twice, firing the "no device
// near" verdict while another device was still out — here the second
// device is an offline black hole, so the correct verdict is the
// timeout with partial replies, not an early completion.
func TestDuplicateReplyDoesNotForceEarlyVerdict(t *testing.T) {
	f := newHouseFixture(t, 33)
	f.withFaults(faults.Profile{Duplicate: 1.0})
	f.addOffline(t, "tablet")
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 10, Y: 8}} // far: the reply fails
	m := &RSSIMethod{
		Clock:  f.clock,
		Broker: f.broker,
		Adv:    f.adv,
		Devices: []DeviceConfig{
			{ID: "pixel5", Threshold: -8.5},
			{ID: "tablet", Threshold: -8.5},
		},
		Timeout: 3 * time.Second,
	}
	got := runCheck(t, f, m)
	if got.Reason != ReasonPartialTimeout {
		t.Fatalf("reason = %v, want a timeout with partial replies — a duplicate must not complete the query early", got.Reason)
	}
	if got.PathDead {
		t.Fatal("partial replies marked the path dead")
	}
	if want := epoch.Add(3 * time.Second); !got.At.Equal(want) {
		t.Fatalf("verdict at %v, want the timeout instant %v", got.At, want)
	}
}

// A corrupted reply may never vote a command legitimate, even when
// the underlying reading would have passed.
func TestCorruptReplyCannotPass(t *testing.T) {
	f := newHouseFixture(t, 34)
	f.withFaults(faults.Profile{Corrupt: 1.0})
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}} // in room: would pass clean
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
		Timeout: 3 * time.Second,
		Tracer:  trace.New(64),
	}
	got := runCheck(t, f, m)
	if got.Legitimate {
		t.Fatalf("corrupt reply passed the check: %+v", got)
	}
	if got.Reason != ReasonNoneNear {
		t.Fatalf("reason = %v, want %v once the only device replied", got.Reason, ReasonNoneNear)
	}
	corrupt := 0
	for _, s := range m.Tracer.Snapshot() {
		if s.Name == "corrupt_reply" {
			corrupt++
		}
	}
	if corrupt != 1 {
		t.Fatalf("%d corrupt_reply events, want the corruption surfaced once", corrupt)
	}
}

// When every send fails observably, the verdict arrives as soon as
// the re-push cap is exhausted — marked PathDead, well before the
// query timeout.
func TestAllSendsFailedIsEarlyPathDead(t *testing.T) {
	f := newHouseFixture(t, 35)
	f.withFaults(faults.Profile{Drop: 1.0})
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
		Timeout: 30 * time.Second,
	}
	got := runCheck(t, f, m)
	if got.Legitimate || !got.PathDead {
		t.Fatalf("want a path-dead block, got %+v", got)
	}
	if got.Reason != ReasonPathDead {
		t.Fatalf("reason = %v, want the dead push path surfaced", got.Reason)
	}
	// Default retry ladder: 400ms + 800ms + 1.6s of backoff → +2.8s,
	// far earlier than the 30s timeout.
	if want := epoch.Add(2800 * time.Millisecond); !got.At.Equal(want) {
		t.Fatalf("verdict at %v, want %v (retry cap, not the timeout)", got.At, want)
	}
}

// A timeout with zero replies — every push black-holed — reports
// ReasonNoReply and is PathDead; the partial-reply timeout stays
// an evidence-based block.
func TestTimeoutWithZeroRepliesIsPathDead(t *testing.T) {
	f := newHouseFixture(t, 36)
	f.addOffline(t, "tablet")
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "tablet", Threshold: -8.5}},
		Timeout: 3 * time.Second,
	}
	got := runCheck(t, f, m)
	if !got.PathDead {
		t.Fatalf("zero-reply timeout not marked path-dead: %+v", got)
	}
	if got.Reason != ReasonNoReply {
		t.Fatalf("reason = %v, want %v", got.Reason, ReasonNoReply)
	}
}

// A reply that lands after its query was decided must not vote in the
// next query, which reuses the decided query's state. The first query
// times out long before its reply, measured in the living room where
// it would pass; the second starts 1 ms before that reply lands, with
// the owner gone to the restroom, so its own reply fails. Had the late
// reply voted, the second query would pass at the late reply's instant.
func TestLateReplyDoesNotVoteInNextQuery(t *testing.T) {
	const seed = 33
	arrival := replyArrival(t, seed)

	f := newHouseFixture(t, seed)
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}} // living room
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
		Timeout: 100 * time.Millisecond,
	}
	var results []Result
	done := func(r Result) { results = append(results, r) }
	m.Check(Request{At: f.clock.Now(), Speaker: "echo", Command: 1}, done)
	f.clock.AdvanceTo(epoch.Add(arrival - time.Millisecond))
	if len(results) != 1 || !results[0].PathDead {
		t.Fatalf("first query's verdicts = %+v, want one reply-less timeout", results)
	}

	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 10, Y: 8}} // restroom
	m.Timeout = DefaultTimeout
	m.Check(Request{At: f.clock.Now(), Speaker: "echo", Command: 2}, done)
	f.clock.Advance(10 * time.Second)
	if len(results) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(results))
	}
	if got := results[1]; got.Legitimate || got.At.Equal(epoch.Add(arrival)) {
		t.Fatalf("the first query's late reply decided the second: %+v", got)
	}
}

// A send outcome that resolves after its query was decided — every
// re-push of the first query failing long after its timeout — must
// not end the next query, whose own sends are still being retried.
func TestLateSendOutcomeDoesNotEndNextQuery(t *testing.T) {
	const seed = 34
	dropAll := faults.Profile{Name: "drop-all", Drop: 1}

	// When the first query's sends have all failed, measured on a
	// throwaway fixture with the same seed.
	probe := newHouseFixture(t, seed)
	probe.withFaults(dropAll)
	var failedAt time.Time
	if err := probe.broker.RequestWith([]string{"pixel5"}, probe.adv, func(push.Reply) {}, push.RequestOpts{
		Done: func(push.Outcome) { failedAt = probe.clock.Now() },
	}); err != nil {
		t.Fatal(err)
	}
	probe.clock.Advance(time.Minute)
	if failedAt.IsZero() {
		t.Fatal("probe sends never resolved")
	}

	f := newHouseFixture(t, seed)
	f.withFaults(dropAll)
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
		Timeout: 100 * time.Millisecond,
	}
	var results []Result
	done := func(r Result) { results = append(results, r) }
	m.Check(Request{At: f.clock.Now(), Speaker: "echo", Command: 1}, done)
	f.clock.Advance(200 * time.Millisecond)
	if len(results) != 1 {
		t.Fatalf("got %d verdicts after the first timeout, want 1", len(results))
	}

	second := f.clock.Now()
	m.Timeout = DefaultTimeout
	m.Check(Request{At: second, Speaker: "echo", Command: 2}, done)
	f.clock.Advance(10 * time.Second)
	if len(results) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(results))
	}
	got := results[1]
	if !got.PathDead {
		t.Fatalf("second query = %+v, want its own all-sends-failed verdict", got)
	}
	if !got.At.After(failedAt) {
		t.Fatalf("second query decided at %v, no later than the first query's failed sends at %v", got.At, failedAt)
	}
}
