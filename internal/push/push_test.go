package push

import (
	"testing"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/metrics"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
)

var epoch = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

type fixture struct {
	clock  *simtime.Sim
	broker *Broker
	adv    ble.Advertiser
	plan   *floorplan.Plan
}

func setup(t *testing.T) *fixture {
	t.Helper()
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 1)
	clock := simtime.NewSim(epoch)
	root := rng.New(99)
	broker := NewBroker(clock, root.Split("push"))
	spot, _ := plan.Spot("A")

	pos := floorplan.Position{Floor: 0, At: geom.Point{X: 4, Y: 3}}
	dev := &Device{
		ID:       "pixel5",
		Scanner:  ble.NewScanner(model, radio.Pixel5, root.Split("scan")),
		Position: func() floorplan.Position { return pos },
	}
	if err := broker.Register(dev); err != nil {
		t.Fatal(err)
	}
	return &fixture{clock: clock, broker: broker, adv: ble.NewAdvertiser(spot.Pos), plan: plan}
}

func TestRequestDeliversReply(t *testing.T) {
	f := setup(t)
	var got []Reply
	if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(r Reply) { got = append(got, r) }, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(10 * time.Second)
	if len(got) != 1 {
		t.Fatalf("replies = %d, want 1", len(got))
	}
	if got[0].DeviceID != "pixel5" {
		t.Fatalf("device = %q", got[0].DeviceID)
	}
}

// A broker that never calls SetLabels still records every reply's
// round trip, in the latency family's unlabeled child.
func TestUnlabeledBrokerRecordsLatency(t *testing.T) {
	f := setup(t)
	h := mLatencyVec.With(metrics.Labels{})
	before := h.Count()
	if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(Reply) {}, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(10 * time.Second)
	if got := h.Count() - before; got != 1 {
		t.Fatalf("%s recorded %d round trips for one reply, want 1", MetricLatency, got)
	}
}

func TestReplyLatencyWithinEnvelope(t *testing.T) {
	f := setup(t)
	for i := 0; i < 100; i++ {
		start := f.clock.Now()
		var at time.Time
		if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(r Reply) { at = r.At }, RequestOpts{}); err != nil {
			t.Fatal(err)
		}
		f.clock.Advance(10 * time.Second)
		d := at.Sub(start)
		// push [0.15, 2.2] + wake [0.08, 0.3] + scan [~0.62, ~0.96] + reply [0.04, 0.12]
		if d < 800*time.Millisecond || d > 3800*time.Millisecond {
			t.Fatalf("query latency %v outside the model envelope", d)
		}
	}
}

func TestReplyLatencyAveragesUnderTwoSeconds(t *testing.T) {
	f := setup(t)
	var total time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		start := f.clock.Now()
		var at time.Time
		if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(r Reply) { at = r.At }, RequestOpts{}); err != nil {
			t.Fatal(err)
		}
		f.clock.Advance(10 * time.Second)
		total += at.Sub(start)
	}
	avg := total / n
	// Paper Fig. 7: average RSSI verification time well under 2 s.
	if avg < time.Second || avg > 2*time.Second {
		t.Fatalf("average query latency %v, want 1-2 s", avg)
	}
}

func TestGroupPushQueriesAllDevices(t *testing.T) {
	f := setup(t)
	model := radio.NewModel(f.plan, radio.DefaultParams(), 1)
	root := rng.New(5)
	pos := floorplan.Position{Floor: 0, At: geom.Point{X: 10, Y: 8}}
	if err := f.broker.Register(&Device{
		ID:       "pixel4a",
		Scanner:  ble.NewScanner(model, radio.Pixel4a, root.Split("scan2")),
		Position: func() floorplan.Position { return pos },
	}); err != nil {
		t.Fatal(err)
	}

	got := map[string]int{}
	err := f.broker.RequestWith([]string{"pixel5", "pixel4a"}, f.adv, func(r Reply) { got[r.DeviceID]++ }, RequestOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(10 * time.Second)
	if got["pixel5"] != 1 || got["pixel4a"] != 1 {
		t.Fatalf("replies = %v, want one from each device", got)
	}
}

func TestRequestUnknownDeviceFails(t *testing.T) {
	f := setup(t)
	err := f.broker.RequestWith([]string{"pixel5", "ghost"}, f.adv, func(Reply) {
		t.Fatal("no reply should be delivered")
	}, RequestOpts{})
	if err == nil || err.Error() != `push: unknown device "ghost"` {
		t.Fatalf("err = %v, want the unknown device named", err)
	}
	f.clock.Advance(10 * time.Second)
}

func TestRegisterValidation(t *testing.T) {
	f := setup(t)
	if err := f.broker.Register(&Device{ID: ""}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := f.broker.Register(&Device{ID: "x"}); err == nil {
		t.Fatal("device without scanner accepted")
	}
	// A live ID cannot be registered twice: the fixture's pixel5 keeps
	// answering from its own position callback.
	model := radio.NewModel(f.plan, radio.DefaultParams(), 1)
	far := floorplan.Position{Floor: 0, At: geom.Point{X: 11, Y: 9}}
	if err := f.broker.Register(&Device{
		ID:       "pixel5",
		Scanner:  ble.NewScanner(model, radio.Pixel4a, rng.New(3)),
		Position: func() floorplan.Position { t.Error("second pixel5 measured"); return far },
	}); err == nil {
		t.Fatal("second registration of a live ID accepted")
	}
	replies := 0
	if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(Reply) { replies++ }, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(10 * time.Second)
	if replies != 1 {
		t.Fatalf("replies = %d, want 1 from the first registration", replies)
	}
}

// cleanRequestAllocs pins what a clean one-device request allocates,
// from send to reply: its group, the wake and reply closures, the
// clock's two events, and the keyed noise draw of the phone's scan
// (ble.Measure sums its packets on the stack). The target list lives
// in the broker and the completion in the group.
const cleanRequestAllocs = 6

func TestCleanRequestAllocations(t *testing.T) {
	f := setup(t)
	deliver := func(Reply) {}
	ids := []string{"pixel5"}
	done := func(Outcome) {}
	got := testing.AllocsPerRun(100, func() {
		if err := f.broker.RequestWith(ids, f.adv, deliver, RequestOpts{Done: done}); err != nil {
			t.Fatal(err)
		}
		f.clock.Advance(10 * time.Second)
	})
	if got > cleanRequestAllocs {
		t.Fatalf("a clean one-device request allocates %.0f times, want at most %d", got, cleanRequestAllocs)
	}
}

func TestOfflineDeviceNeverReplies(t *testing.T) {
	f := setup(t)
	pos := floorplan.Position{Floor: 0, At: geom.Point{X: 4, Y: 3}}
	model := radio.NewModel(f.plan, radio.DefaultParams(), 1)
	if err := f.broker.Register(&Device{
		ID:       "offline",
		Scanner:  ble.NewScanner(model, radio.Pixel5, rng.New(8)),
		Position: func() floorplan.Position { return pos },
		Offline:  true,
	}); err != nil {
		t.Fatal(err)
	}
	replies := 0
	if err := f.broker.RequestWith([]string{"offline"}, f.adv, func(Reply) { replies++ }, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if replies != 0 {
		t.Fatalf("offline device replied %d times", replies)
	}
}

func TestPositionCallbackEvaluatedAtMeasurementTime(t *testing.T) {
	// The device moves after the request is sent; the scan must see
	// the position at wake-up time, not at request time.
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 1)
	clock := simtime.NewSim(epoch)
	root := rng.New(7)
	broker := NewBroker(clock, root.Split("push"))
	spot, _ := plan.Spot("A")

	near := floorplan.Position{Floor: 0, At: geom.Point{X: 2.5, Y: 2.25}}
	far := floorplan.Position{Floor: 0, At: geom.Point{X: 11, Y: 9}}
	current := near
	if err := broker.Register(&Device{
		ID:       "d",
		Scanner:  ble.NewScanner(model, radio.Pixel5, root.Split("scan")),
		Position: func() floorplan.Position { return current },
	}); err != nil {
		t.Fatal(err)
	}

	var rssi float64
	if err := broker.RequestWith([]string{"d"}, ble.NewAdvertiser(spot.Pos), func(r Reply) { rssi = r.Reading.RSSI }, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	current = far // move before the push arrives
	clock.Advance(10 * time.Second)
	if rssi > -9 {
		t.Fatalf("RSSI %v reflects the old position; want the far position's value", rssi)
	}
}
