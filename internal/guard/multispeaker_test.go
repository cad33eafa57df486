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

// TestDualSpeakerDeployment reproduces the multi-speaker case of §V:
// an Echo Dot and a Google Home Mini protected simultaneously, with
// the router dispatching each speaker's traffic to its own guard by
// source IP. The Echo's owner is near it (commands allowed); the
// GHM sits in a room with no owner (commands blocked).
func TestDualSpeakerDeployment(t *testing.T) {
	clock := simtime.NewSim(epoch)
	root := rng.New(99)
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 99)
	broker := push.NewBroker(clock, root.Split("push"))

	ownerPos := floorplan.Position{Floor: 0, At: geom.Point{X: 3, Y: 2.5}} // living room
	if err := broker.Register(&push.Device{
		ID:       "pixel5",
		Scanner:  ble.NewScanner(model, radio.Pixel5, root.Split("scan")),
		Position: func() floorplan.Position { return ownerPos },
	}); err != nil {
		t.Fatal(err)
	}

	spotA, _ := plan.Spot("A") // living room: Echo, owner nearby
	spotB, _ := plan.Spot("B") // kitchen: GHM, no one there

	newMethod := func(spot floorplan.Spot) decision.Method {
		return &decision.RSSIMethod{
			Clock:   clock,
			Broker:  broker,
			Adv:     ble.NewAdvertiser(spot.Pos),
			Devices: []decision.DeviceConfig{{ID: "pixel5", Threshold: -7.5}},
		}
	}

	echoGen := trafficgen.NewEcho(root.Split("echo-traffic"))
	echoGen.AnomalyRate = 0
	ghmGen := trafficgen.NewGHM(root.Split("ghm-traffic"))

	echoGuard := New(clock, recognize.NewEcho(trafficgen.EchoAddr), newMethod(spotA), "echo")
	ghmGuard := New(clock, recognize.NewGHM(trafficgen.GHMAddr), newMethod(spotB), "ghm")
	echoEvents, ghmEvents := collect(echoGuard), collect(ghmGuard)
	ghmGuard.DispatchDelay = 350 * time.Millisecond

	router := NewRouter()
	mustAdd(t, router, trafficgen.EchoIP, echoGuard)
	mustAdd(t, router, trafficgen.GHMIP, ghmGuard)

	feed := func(packets []pcap.Packet) {
		for _, p := range packets {
			clock.AdvanceTo(p.Time)
			router.Feed(&p)
		}
	}

	boot, err := echoGen.Boot(epoch)
	if err != nil {
		t.Fatal(err)
	}
	feed(boot)

	// Interleave invocations on both speakers: merge their packets
	// into one stream, as a real capture would see them.
	echoInv := echoGen.Invocation(clock.Now().Add(time.Minute), 1)
	ghmInv := ghmGen.Invocation(clock.Now().Add(time.Minute).Add(700 * time.Millisecond))
	merged := append(echoInv.All(), ghmInv.All()...)
	pcap.SortByTime(merged)
	feed(merged)
	clock.Advance(15 * time.Second)

	echoCmds := commandEvents(*echoEvents)
	if len(echoCmds) != 1 {
		t.Fatalf("echo guard: %d command events, want 1", len(echoCmds))
	}
	if !echoCmds[0].Released {
		t.Fatalf("echo command blocked with owner nearby: %+v", echoCmds[0].Verdict)
	}

	ghmCmds := commandEvents(*ghmEvents)
	if len(ghmCmds) != 1 {
		t.Fatalf("ghm guard: %d command events, want 1", len(ghmCmds))
	}
	if ghmCmds[0].Released {
		t.Fatalf("ghm command allowed with no one in the kitchen: %+v", ghmCmds[0].Verdict)
	}
}

// TestDualSpeakerIsolation verifies that one speaker's traffic never
// leaks into the other guard's spike state.
func TestDualSpeakerIsolation(t *testing.T) {
	clock := simtime.NewSim(epoch)
	root := rng.New(100)

	echoGuard := New(clock, recognize.NewEcho(trafficgen.EchoAddr), &decision.StaticMethod{MethodName: "allow", Allow: true}, "echo")
	ghmGuard := New(clock, recognize.NewGHM(trafficgen.GHMAddr), &decision.StaticMethod{MethodName: "allow", Allow: true}, "ghm")
	echoEvents, ghmEvents := collect(echoGuard), collect(ghmGuard)
	router := NewRouter()
	mustAdd(t, router, trafficgen.EchoIP, echoGuard)
	mustAdd(t, router, trafficgen.GHMIP, ghmGuard)

	ghmGen := trafficgen.NewGHM(root.Split("traffic"))
	inv := ghmGen.Invocation(epoch)
	for _, p := range inv.All() {
		clock.AdvanceTo(p.Time)
		router.Feed(&p)
	}
	clock.Advance(10 * time.Second)

	if len(*echoEvents) != 0 {
		t.Fatalf("echo guard recorded %d events from GHM traffic", len(*echoEvents))
	}
	if len(commandEvents(*ghmEvents)) != 1 {
		t.Fatal("ghm guard missed its own invocation")
	}
}
