package guard

import (
	"testing"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/decision"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/pcap"
	"voiceguard/internal/push"
	"voiceguard/internal/radio"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trafficgen"
)

var epoch = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

// fixture wires a full guard on the house testbed: Echo generator,
// recognizer, RSSI method with one phone.
type fixture struct {
	clock  *simtime.Sim
	echo   *trafficgen.Echo
	guard  *Guard
	events *[]Event
	pos    floorplan.Position
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	f := &fixture{clock: simtime.NewSim(epoch)}
	root := rng.New(seed)
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), seed)
	spot, _ := plan.Spot("A")
	broker := push.NewBroker(f.clock, root.Split("push"))

	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}}
	if err := broker.Register(&push.Device{
		ID:       "pixel5",
		Scanner:  ble.NewScanner(model, radio.Pixel5, root.Split("scan")),
		Position: func() floorplan.Position { return f.pos },
	}); err != nil {
		t.Fatal(err)
	}

	method := &decision.RSSIMethod{
		Clock:   f.clock,
		Broker:  broker,
		Adv:     ble.NewAdvertiser(spot.Pos),
		Devices: []decision.DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
	}

	f.echo = trafficgen.NewEcho(root.Split("traffic"))
	f.echo.AnomalyRate = 0
	rec := recognize.NewEcho(trafficgen.EchoAddr)
	f.guard = New(f.clock, rec, method, "echo")
	f.events = collect(f.guard)

	boot, err := f.echo.Boot(epoch)
	if err != nil {
		t.Fatal(err)
	}
	f.feed(boot)
	return f
}

// feed advances the clock through the packets, delivering each to the
// guard at its timestamp.
func (f *fixture) feed(packets []pcap.Packet) {
	for _, p := range packets {
		f.clock.AdvanceTo(p.Time)
		f.guard.Feed(&p)
	}
}

// settle runs the clock forward so pending queries and idle timers
// complete.
func (f *fixture) settle() { f.clock.Advance(15 * time.Second) }

// collect records a guard's events through OnEvent; the guard keeps no
// history of its own.
func collect(g *Guard) *[]Event {
	var events []Event
	g.OnEvent(func(e Event) { events = append(events, e) })
	return &events
}

func commandEvents(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == EventCommand {
			out = append(out, e)
		}
	}
	return out
}

func TestLegitimateCommandReleased(t *testing.T) {
	f := newFixture(t, 1)
	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 1)
	f.feed(inv.All())
	f.settle()

	cmds := commandEvents(*f.events)
	if len(cmds) != 1 {
		t.Fatalf("command events = %d, want 1", len(cmds))
	}
	ev := cmds[0]
	if !ev.Released || !ev.Verdict.Legitimate {
		t.Fatalf("owner-in-room command blocked: %+v", ev.Verdict)
	}
	if ev.HeldPackets == 0 {
		t.Fatal("no packets recorded as held")
	}
}

func TestMaliciousCommandDropped(t *testing.T) {
	f := newFixture(t, 2)
	f.pos = floorplan.Position{Floor: 0, At: geom.Point{X: 10, Y: 8}} // owner in restroom
	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 1)
	f.feed(inv.All())
	f.settle()

	cmds := commandEvents(*f.events)
	if len(cmds) != 1 {
		t.Fatalf("command events = %d, want 1", len(cmds))
	}
	if cmds[0].Released {
		t.Fatalf("attack released: %+v", cmds[0].Verdict)
	}
}

func TestResponseSpikesReleasedWithoutQuery(t *testing.T) {
	f := newFixture(t, 3)
	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 3)
	f.feed(inv.All())
	f.settle()

	var nonCommands int
	for _, e := range *f.events {
		// Skip the boot-time connect spike (held and released before
		// the invocation).
		if e.SpikeStart.Before(inv.Start) {
			continue
		}
		if e.Kind == EventNonCommand {
			nonCommands++
			if !e.Released {
				t.Fatal("non-command spike not released")
			}
			if e.Verdict.Reason != decision.ReasonUnspecified {
				t.Fatal("non-command spike went through a decision query")
			}
		}
	}
	if nonCommands != 3 {
		t.Fatalf("non-command events = %d, want 3 response spikes", nonCommands)
	}
}

func TestVerificationTimeWithinFig7Envelope(t *testing.T) {
	f := newFixture(t, 4)
	at := f.clock.Now().Add(time.Minute)
	for i := 0; i < 30; i++ {
		inv := f.echo.Invocation(at, 1)
		f.feed(inv.All())
		f.settle()
		at = f.clock.Now().Add(30 * time.Second)
	}
	cmds := commandEvents(*f.events)
	if len(cmds) != 30 {
		t.Fatalf("command events = %d, want 30", len(cmds))
	}
	var total time.Duration
	for _, e := range cmds {
		v := e.VerificationTime()
		if v <= 0 || v > 4*time.Second {
			t.Fatalf("verification time %v outside (0, 4s]", v)
		}
		total += v
	}
	avg := total / time.Duration(len(cmds))
	// Paper Fig. 7: Echo Dot average 1.622 s.
	if avg < time.Second || avg > 2500*time.Millisecond {
		t.Fatalf("average verification time %v, want ~1.6 s", avg)
	}
}

func TestDispatchDelayShiftsVerificationTime(t *testing.T) {
	base := newFixture(t, 5)
	inv := base.echo.Invocation(base.clock.Now().Add(time.Minute), 0)
	base.feed(inv.All())
	base.settle()
	baseTime := commandEvents(*base.events)[0].VerificationTime()

	delayed := newFixture(t, 5)
	delayed.guard.DispatchDelay = 500 * time.Millisecond
	inv2 := delayed.echo.Invocation(delayed.clock.Now().Add(time.Minute), 0)
	delayed.feed(inv2.All())
	delayed.settle()
	delayedTime := commandEvents(*delayed.events)[0].VerificationTime()

	diff := delayedTime - baseTime
	if diff != 500*time.Millisecond {
		t.Fatalf("dispatch delay shifted verification by %v, want exactly 500ms (same seed)", diff)
	}
}

func TestAnomalousCommandSlipsThrough(t *testing.T) {
	// The 2-in-134 recognition misses of Table I: an anomalous
	// command phase is released without a decision query.
	f := newFixture(t, 6)
	f.echo.AnomalyRate = 1
	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 0)
	f.feed(inv.All())
	f.settle()

	events := *f.events
	if len(commandEvents(events)) != 0 {
		t.Fatal("anomalous command still triggered a query")
	}
	found := false
	for _, e := range events {
		if e.Kind == EventNonCommand && e.Released {
			found = true
		}
	}
	if !found {
		t.Fatal("anomalous spike never released")
	}
}

func TestGHMGuardImmediateQuery(t *testing.T) {
	clock := simtime.NewSim(epoch)
	root := rng.New(7)
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 7)
	spot, _ := plan.Spot("A")
	broker := push.NewBroker(clock, root.Split("push"))
	pos := floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}}
	if err := broker.Register(&push.Device{
		ID:       "pixel5",
		Scanner:  ble.NewScanner(model, radio.Pixel5, root.Split("scan")),
		Position: func() floorplan.Position { return pos },
	}); err != nil {
		t.Fatal(err)
	}
	method := &decision.RSSIMethod{
		Clock:   clock,
		Broker:  broker,
		Adv:     ble.NewAdvertiser(spot.Pos),
		Devices: []decision.DeviceConfig{{ID: "pixel5", Threshold: -8.5}},
	}
	ghm := trafficgen.NewGHM(root.Split("traffic"))
	g := New(clock, recognize.NewGHM(trafficgen.GHMAddr), method, "ghm")
	events := collect(g)
	g.DispatchDelay = 350 * time.Millisecond

	inv := ghm.Invocation(epoch.Add(time.Minute))
	for _, p := range inv.All() {
		clock.AdvanceTo(p.Time)
		g.Feed(&p)
	}
	clock.Advance(15 * time.Second)

	cmds := commandEvents(*events)
	if len(cmds) != 1 {
		t.Fatalf("command events = %d, want 1", len(cmds))
	}
	if !cmds[0].Released {
		t.Fatalf("legitimate GHM command blocked: %+v", cmds[0].Verdict)
	}
}

func TestEventCallbackFires(t *testing.T) {
	f := newFixture(t, 8)
	var got []Event
	f.guard.OnEvent(func(e Event) { got = append(got, e) })
	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 1)
	f.feed(inv.All())
	f.settle()
	if len(commandEvents(got)) != 1 {
		t.Fatalf("callback saw %d command events in %d events, want 1", len(commandEvents(got)), len(got))
	}
}

func TestRouterRoutesBySpeakerIP(t *testing.T) {
	f := newFixture(t, 9)
	router := NewRouter()
	mustAdd(t, router, trafficgen.EchoIP, f.guard)

	if router.guards[trafficgen.EchoAddr] != f.guard || len(router.guards) != 1 {
		t.Fatalf("router guards = %v, want only the Echo's", router.guards)
	}

	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 0)
	for _, p := range inv.All() {
		f.clock.AdvanceTo(p.Time)
		router.Feed(&p)
	}
	f.settle()
	if len(commandEvents(*f.events)) != 1 {
		t.Fatal("router did not deliver the invocation to the guard")
	}

	// Unknown-host packets are dropped silently.
	router.Feed(&pcap.Packet{Time: f.clock.Now(), SrcIP: pcap.MustParseIPv4("10.9.9.9"), DstIP: pcap.MustParseIPv4("8.8.8.8"), Proto: pcap.TCP})
}

// mustAdd registers a guard for a dotted-decimal speaker IP.
func mustAdd(t *testing.T, r *Router, speakerIP string, g *Guard) {
	t.Helper()
	if err := r.Add(speakerIP, g); err != nil {
		t.Fatal(err)
	}
}

// A malformed speaker address is an error on Add that registers
// nothing, never a panic.
func TestRouterRejectsMalformedAddress(t *testing.T) {
	f := newFixture(t, 9)
	router := NewRouter()
	for _, ip := range []string{"", "echo", "192.168.1.2OO", "192.168.001.200", "::1"} {
		if err := router.Add(ip, f.guard); err == nil {
			t.Errorf("Add(%q) accepted a malformed address", ip)
		}
	}
	if len(router.guards) != 0 {
		t.Fatalf("malformed addresses registered %d guards", len(router.guards))
	}
}

func TestHoldDurationAccessors(t *testing.T) {
	e := Event{
		Kind:       EventCommand,
		SpikeStart: epoch,
		DecisionAt: epoch.Add(1500 * time.Millisecond),
	}
	if e.HoldDuration() != 1500*time.Millisecond {
		t.Fatalf("HoldDuration = %v", e.HoldDuration())
	}
	if (Event{Kind: EventNonCommand}).HoldDuration() != 0 {
		t.Fatal("non-command hold duration should be 0")
	}
}
