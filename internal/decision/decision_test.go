package decision

import (
	"testing"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/mobility"
	"voiceguard/internal/push"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
)

var epoch = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

// houseFixture wires a house testbed with one phone.
type houseFixture struct {
	plan    *floorplan.Plan
	model   *radio.Model
	clock   *simtime.Sim
	broker  *push.Broker
	adv     ble.Advertiser
	scanner *ble.Scanner
	pos     floorplan.Position // mutable phone position
	root    *rng.Source
}

func newHouseFixture(t testing.TB, seed int64) *houseFixture {
	t.Helper()
	return newHouseFixtureWith(t, seed, false)
}

// newHouseFixtureWith is newHouseFixture with the phone online or
// offline.
func newHouseFixtureWith(t testing.TB, seed int64, offline bool) *houseFixture {
	t.Helper()
	f := &houseFixture{
		plan: floorplan.House(),
		root: rng.New(seed),
	}
	f.model = radio.NewModel(f.plan, radio.DefaultParams(), seed)
	f.clock = simtime.NewSim(epoch)
	f.broker = push.NewBroker(f.clock, f.root.Split("push"))
	spot, _ := f.plan.Spot("A")
	f.adv = ble.NewAdvertiser(spot.Pos)
	f.scanner = ble.NewScanner(f.model, radio.Pixel5, f.root.Split("scan"))
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 4, Y: 3}}
	if err := f.broker.Register(&push.Device{
		ID:       "pixel5",
		Scanner:  f.scanner,
		Position: func() floorplan.Position { return f.pos },
		Offline:  offline,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// calibrated returns the living-room threshold from the walk app.
// The calibration walk is leisurely (0.8 m/s), giving the app a dense
// sample of the room boundary.
func (f *houseFixture) calibrated(t *testing.T) float64 {
	t.Helper()
	room, _ := f.plan.Room("living")
	walk, err := mobility.NewRoutePath(mobility.PerimeterRoute(room, 0.3), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := CalibrateThreshold(f.scanner, f.adv, walk)
	if err != nil {
		t.Fatal(err)
	}
	return threshold
}

func TestCalibrateThresholdNearPaperValue(t *testing.T) {
	f := newHouseFixture(t, 1)
	threshold := f.calibrated(t)
	// The paper's living-room threshold is -8 dB; the model should
	// land in the same neighbourhood.
	if threshold > -7 || threshold < -10.5 {
		t.Fatalf("calibrated threshold = %.2f, want roughly -8", threshold)
	}
}

func TestCalibrateRejectsTinyWalk(t *testing.T) {
	f := newHouseFixture(t, 2)
	route := floorplan.Route{Name: "step", Waypoints: []floorplan.Position{
		{Floor: 0, At: geom.Point{X: 1, Y: 1}},
		{Floor: 0, At: geom.Point{X: 1.05, Y: 1}},
	}}
	walk, err := mobility.NewRoutePath(route, mobility.DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateThreshold(f.scanner, f.adv, walk); err == nil {
		t.Fatal("accepted a calibration walk far too short to sample")
	}
}

// runCheck executes one RSSI check and returns the result.
func runCheck(t *testing.T, f *houseFixture, m Method) Result {
	t.Helper()
	var (
		got  Result
		seen bool
	)
	m.Check(Request{At: f.clock.Now(), Speaker: "echo"}, func(r Result) {
		if seen {
			t.Fatal("done called twice")
		}
		seen = true
		got = r
	})
	f.clock.Advance(10 * time.Second)
	if !seen {
		t.Fatal("check never completed")
	}
	return got
}

func TestRSSIMethodAllowsOwnerInRoom(t *testing.T) {
	f := newHouseFixture(t, 3)
	threshold := f.calibrated(t)
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: threshold}},
	}
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}} // living room
	if got := runCheck(t, f, m); !got.Legitimate || got.Reason != ReasonPassed {
		t.Fatalf("owner in room blocked: %+v", got)
	}
}

func TestRSSIMethodBlocksOwnerAway(t *testing.T) {
	f := newHouseFixture(t, 4)
	threshold := f.calibrated(t)
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: threshold}},
	}
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 10, Y: 8}} // restroom
	if got := runCheck(t, f, m); got.Legitimate || got.Reason != ReasonNoneNear {
		t.Fatalf("attack allowed with owner in the restroom: %+v", got)
	}
}

func TestRSSIMethodMultiUserAnyDevicePasses(t *testing.T) {
	f := newHouseFixture(t, 5)
	threshold := f.calibrated(t)
	// Second user with phone far away.
	farPos := floorplan.Position{Floor: 0, At: geom.Point{X: 11, Y: 9}}
	if err := f.broker.Register(&push.Device{
		ID:       "pixel4a",
		Scanner:  ble.NewScanner(f.model, radio.Pixel4a, f.root.Split("scan2")),
		Position: func() floorplan.Position { return farPos },
	}); err != nil {
		t.Fatal(err)
	}
	m := &RSSIMethod{
		Clock:  f.clock,
		Broker: f.broker,
		Adv:    f.adv,
		Devices: []DeviceConfig{
			{ID: "pixel5", Threshold: threshold},
			{ID: "pixel4a", Threshold: threshold},
		},
	}
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 2.5, Y: 2.5}}
	if got := runCheck(t, f, m); !got.Legitimate {
		t.Fatalf("one-of-two owners near should pass: %+v", got)
	}

	// Both away: block.
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 9, Y: 1}}
	if got := runCheck(t, f, m); got.Legitimate {
		t.Fatalf("both owners away should block: %+v", got)
	}
}

func TestRSSIMethodNoDevices(t *testing.T) {
	f := newHouseFixture(t, 6)
	m := &RSSIMethod{Clock: f.clock, Broker: f.broker, Adv: f.adv}
	if got := runCheck(t, f, m); got.Legitimate || got.Reason != ReasonNoDevices {
		t.Fatalf("no registered devices should block: %+v", got)
	}
}

func TestRSSIMethodUnknownDeviceBlocks(t *testing.T) {
	f := newHouseFixture(t, 7)
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "ghost", Threshold: -8}},
	}
	if got := runCheck(t, f, m); got.Legitimate || got.Reason != ReasonPushError {
		t.Fatalf("unknown device should block on the refused push: %+v", got)
	}
}

func TestRSSIMethodFloorTrackerOverridesRSSI(t *testing.T) {
	f := newHouseFixture(t, 8)
	threshold := f.calibrated(t)
	classifier := trainHouseClassifier(t, f)
	tracker := NewFloorTracker(classifier, 0 /* speaker floor */, 0, 1, 1 /* believed upstairs */)
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: threshold, Tracker: tracker}},
	}
	// Owner is in the bleed-through zone directly above the speaker:
	// RSSI passes the threshold but the tracker says "upstairs".
	f.pos = floorplan.Position{Floor: 1, At: geom.Point{X: 1, Y: 2.25}}
	if got := runCheck(t, f, m); got.Legitimate {
		t.Fatalf("bleed-through attack allowed despite floor tracking: %+v", got)
	}

	// Same position believed downstairs would pass (the ablation's
	// false-negative hole).
	tracker.SetLevel(0)
	if got := runCheck(t, f, m); !got.Legitimate {
		t.Fatalf("with tracker on the speaker floor, bleed-through RSSI passes: %+v", got)
	}
}

func TestRSSIMethodTimesOutOnOfflineDevice(t *testing.T) {
	f := newHouseFixtureWith(t, 21, true)
	m := &RSSIMethod{
		Clock:   f.clock,
		Broker:  f.broker,
		Adv:     f.adv,
		Devices: []DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
		Timeout: 3 * time.Second,
	}
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}} // owner IS near
	start := f.clock.Now()
	got := runCheck(t, f, m)
	if got.Legitimate {
		t.Fatal("offline device should fail safe (block)")
	}
	if elapsed := got.At.Sub(start); elapsed != 3*time.Second {
		t.Fatalf("verdict at +%v, want exactly the 3s timeout", elapsed)
	}
}

func TestRSSIMethodMixedOfflineDevices(t *testing.T) {
	// One phone offline, one online and near: the online one carries
	// the decision.
	f := newHouseFixture(t, 22)
	offPos := floorplan.Position{Floor: 0, At: geom.Point{X: 11, Y: 9}}
	if err := f.broker.Register(&push.Device{
		ID:       "dead-phone",
		Scanner:  ble.NewScanner(f.model, radio.Pixel4a, f.root.Split("dead")),
		Position: func() floorplan.Position { return offPos },
		Offline:  true,
	}); err != nil {
		t.Fatal(err)
	}
	m := &RSSIMethod{
		Clock:  f.clock,
		Broker: f.broker,
		Adv:    f.adv,
		Devices: []DeviceConfig{
			{ID: "pixel5", Threshold: -8.5},
			{ID: "dead-phone", Threshold: -8.5},
		},
	}
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}}
	if got := runCheck(t, f, m); !got.Legitimate {
		t.Fatalf("online owner nearby should pass despite an offline device: %+v", got)
	}
}

func TestFloorCeilingResyncsDriftedTracker(t *testing.T) {
	f := newHouseFixture(t, 23)
	threshold := f.calibrated(t)
	classifier := trainHouseClassifier(t, f)
	tracker := NewFloorTracker(classifier, 0, 0, 1, 1 /* drifted: believes upstairs */)
	m := &RSSIMethod{
		Clock:  f.clock,
		Broker: f.broker,
		Adv:    f.adv,
		Devices: []DeviceConfig{{
			ID:           "pixel5",
			Threshold:    threshold,
			Tracker:      tracker,
			FloorCeiling: -6.5, // strongest off-floor reading + margin
		}},
	}

	// The owner stands right next to the speaker: RSSI far above the
	// ceiling, impossible from upstairs — the tracker must resync and
	// the command pass.
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 2.5, Y: 2.25}}
	if got := runCheck(t, f, m); !got.Legitimate {
		t.Fatalf("above-ceiling reading should resync and pass: %+v", got)
	}
	if tracker.Level() != 0 {
		t.Fatalf("tracker level %d after resync, want 0", tracker.Level())
	}
}

func TestFloorCeilingDoesNotResyncInBleedBand(t *testing.T) {
	f := newHouseFixture(t, 24)
	threshold := f.calibrated(t)
	classifier := trainHouseClassifier(t, f)
	tracker := NewFloorTracker(classifier, 0, 0, 1, 1)
	m := &RSSIMethod{
		Clock:  f.clock,
		Broker: f.broker,
		Adv:    f.adv,
		Devices: []DeviceConfig{{
			ID:           "pixel5",
			Threshold:    threshold,
			Tracker:      tracker,
			FloorCeiling: -6.5,
		}},
	}

	// Owner genuinely upstairs in the bleed zone: reading above the
	// threshold but below the ceiling - the tracker must hold and the
	// command stay blocked.
	f.pos = floorplan.Position{Floor: 1, At: geom.Point{X: 1, Y: 2.25}}
	if got := runCheck(t, f, m); got.Legitimate {
		t.Fatalf("bleed-band reading resynced the tracker: %+v", got)
	}
	if tracker.Level() != 1 {
		t.Fatalf("tracker level %d, want unchanged 1", tracker.Level())
	}
}

func TestStaticMethod(t *testing.T) {
	var got Result
	(&StaticMethod{MethodName: "allow-all", Allow: true}).Check(Request{At: epoch}, func(r Result) { got = r })
	if !got.Legitimate || got.Reason != ReasonStatic || !got.At.Equal(epoch) {
		t.Fatalf("static allow = %+v, want a legitimate static verdict at the request time", got)
	}
	(&StaticMethod{MethodName: "block-all"}).Check(Request{At: epoch}, func(r Result) { got = r })
	if got.Legitimate {
		t.Fatal("static block returned allow")
	}
}

// trainHouseClassifier builds the Fig. 10 training set: 15 Up, 15
// Down, 25 Route-1, 10 Route-2, and 10 Route-3 traces.
func trainHouseClassifier(t *testing.T, f *houseFixture) *TraceClassifier {
	t.Helper()
	samples := collectTraining(t, f)
	classifier, err := TrainClassifier(samples)
	if err != nil {
		t.Fatal(err)
	}
	return classifier
}

func collectTraining(t *testing.T, f *houseFixture) []LabeledTrace {
	t.Helper()
	var samples []LabeledTrace

	record := func(class TraceClass, route floorplan.Route, n int) {
		for i := 0; i < n; i++ {
			path, err := mobility.NewRoutePath(route, mobility.DefaultSpeed)
			if err != nil {
				t.Fatal(err)
			}
			trace := RecordTrace(f.scanner, f.adv, path, 0)
			lt, err := FeaturesOf(class, trace)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, lt)
		}
	}

	record(TraceUp, f.plan.Routes["up"], 15)
	record(TraceDown, f.plan.Routes["down"], 15)
	record(TraceOther, f.plan.Routes["route2"], 10)
	record(TraceOther, f.plan.Routes["route3"], 10)

	// Route 1: 5 wander traces in each of 5 rooms.
	for _, roomName := range []string{"living", "kitchen", "restroom", "master", "bedroom2"} {
		room, ok := f.plan.Room(roomName)
		if !ok {
			t.Fatalf("missing room %s", roomName)
		}
		for i := 0; i < 5; i++ {
			path, err := mobility.NewWanderPath(room, mobility.DefaultSpeed, 10*time.Second, f.root.SplitN("wander-"+roomName, i))
			if err != nil {
				t.Fatal(err)
			}
			trace := RecordTrace(f.scanner, f.adv, path, 0)
			lt, err := FeaturesOf(TraceOther, trace)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, lt)
		}
	}
	return samples
}

func TestTraceClassifierSeparatesFigure10Cases(t *testing.T) {
	f := newHouseFixture(t, 9)
	classifier := trainHouseClassifier(t, f)

	check := func(route floorplan.Route, want TraceClass, n int) int {
		correct := 0
		for i := 0; i < n; i++ {
			path, err := mobility.NewRoutePath(route, mobility.DefaultSpeed)
			if err != nil {
				t.Fatal(err)
			}
			trace := RecordTrace(f.scanner, f.adv, path, 0)
			f, err := ExtractFeatures(trace)
			if err != nil {
				t.Fatal(err)
			}
			if classifier.Classify(f) == want {
				correct++
			}
		}
		return correct
	}

	const trials = 20
	if got := check(f.plan.Routes["up"], TraceUp, trials); got < trials*8/10 {
		t.Fatalf("up traces: %d/%d correct", got, trials)
	}
	if got := check(f.plan.Routes["down"], TraceDown, trials); got < trials*8/10 {
		t.Fatalf("down traces: %d/%d correct", got, trials)
	}
	if got := check(f.plan.Routes["route2"], TraceOther, trials); got < trials*8/10 {
		t.Fatalf("route2 traces: %d/%d correct", got, trials)
	}
	if got := check(f.plan.Routes["route3"], TraceOther, trials); got < trials*8/10 {
		t.Fatalf("route3 traces: %d/%d correct", got, trials)
	}
}

func TestTraceClassifierRoute1InSlopeBand(t *testing.T) {
	f := newHouseFixture(t, 10)
	classifier := trainHouseClassifier(t, f)
	lo, hi := classifier.SlopeBand()
	if lo >= 0 || hi <= 0 {
		t.Fatalf("slope band (%v, %v) should straddle zero", lo, hi)
	}
	room, _ := f.plan.Room("living")
	for i := 0; i < 10; i++ {
		path, err := mobility.NewWanderPath(room, mobility.DefaultSpeed, 10*time.Second, f.root.SplitN("r1", i))
		if err != nil {
			t.Fatal(err)
		}
		trace := RecordTrace(f.scanner, f.adv, path, 0)
		f, err := ExtractFeatures(trace)
		if err != nil {
			t.Fatal(err)
		}
		if got := classifier.Classify(f); got != TraceOther {
			t.Fatalf("in-room wander %d classified %v (slope %.2f)", i, got, f.Slope)
		}
	}
}

func TestTrainClassifierRequiresAllClasses(t *testing.T) {
	_, err := TrainClassifier([]LabeledTrace{{Class: TraceUp, F: Features{Slope: -2, Intercept: -10}}})
	if err == nil {
		t.Fatal("training accepted a one-class set")
	}
}

func TestTraceFeaturesErrors(t *testing.T) {
	if _, _, err := TraceFeatures([]float64{1}); err == nil {
		t.Fatal("accepted a one-sample trace")
	}
}

func TestFloorTrackerUpdates(t *testing.T) {
	f := newHouseFixture(t, 11)
	classifier := trainHouseClassifier(t, f)
	tracker := NewFloorTracker(classifier, 0, 0, 1, 0)

	upPath, err := mobility.NewRoutePath(f.plan.Routes["up"], mobility.DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	class, err := tracker.OnMotionTrace(RecordTrace(f.scanner, f.adv, upPath, 0))
	if err != nil {
		t.Fatal(err)
	}
	if class != TraceUp || tracker.Level() != 1 || tracker.SameFloorAsSpeaker() {
		t.Fatalf("after up trace: class=%v level=%d", class, tracker.Level())
	}

	downPath, err := mobility.NewRoutePath(f.plan.Routes["down"], mobility.DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	class, err = tracker.OnMotionTrace(RecordTrace(f.scanner, f.adv, downPath, 0))
	if err != nil {
		t.Fatal(err)
	}
	if class != TraceDown || tracker.Level() != 0 || !tracker.SameFloorAsSpeaker() {
		t.Fatalf("after down trace: class=%v level=%d", class, tracker.Level())
	}
}

func TestFloorTrackerClampsLevels(t *testing.T) {
	tracker := NewFloorTracker(nil, 0, 0, 1, 5)
	if tracker.Level() != 1 {
		t.Fatalf("start level clamped to %d, want 1", tracker.Level())
	}
	tracker.SetLevel(-3)
	if tracker.Level() != 0 {
		t.Fatalf("SetLevel clamped to %d, want 0", tracker.Level())
	}
}

func TestFloorTrackerRejectsShortTrace(t *testing.T) {
	f := newHouseFixture(t, 12)
	classifier := trainHouseClassifier(t, f)
	tracker := NewFloorTracker(classifier, 0, 0, 1, 0)
	if _, err := tracker.OnMotionTrace([]float64{-5}); err == nil {
		t.Fatal("accepted a one-sample trace")
	}
}
