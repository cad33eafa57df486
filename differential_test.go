package voiceguard

import (
	"context"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/guard"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// Timing of the compressed trace: the idle gap both planes use, and
// the spacing between consecutive bursts of the trace. Bursts are sent
// whole, so the spacing is also the quiet time between them.
const (
	diffIdleGap = 50 * time.Millisecond
	diffSpacing = 150 * time.Millisecond
)

// diffVerdicts is the scripted decision for the n-th command, the same
// on both planes.
var diffVerdicts = []bool{true, false, true, false, false, true}

// spikeOutcome is what the differential test compares per spike.
type spikeOutcome struct {
	kind     guard.EventKind
	released bool
}

// diffTrace records Echo traffic — invocations with their response
// spikes, plus keep-alives — and compresses it into bursts: packets
// less than the sim's idle gap apart share a burst, and bursts are
// replayed diffSpacing apart.
func diffTrace(t *testing.T) (bursts [][]pcap.Packet, avs string) {
	t.Helper()
	echo := trafficgen.NewEcho(rng.New(11).Split("traffic"))
	echo.AnomalyRate = 0
	start := time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)
	var packets []pcap.Packet
	for i := 0; i < 4; i++ {
		packets = append(packets, echo.Invocation(start.Add(time.Duration(i)*40*time.Second), 1+i%3).All()...)
	}
	packets = append(packets, echo.Heartbeats(start, 160*time.Second)...)
	pcap.SortByTime(packets)

	var last time.Time
	for _, p := range packets {
		if len(bursts) == 0 || p.Time.Sub(last) >= pcap.DefaultIdleGap {
			bursts = append(bursts, nil)
		}
		bursts[len(bursts)-1] = append(bursts[len(bursts)-1], p)
		last = p.Time
	}
	return bursts, echo.AVSAddr().String()
}

// scriptedMethod answers the n-th query with diffVerdicts[n] after a
// short simulated decision time.
type scriptedMethod struct {
	clock *simtime.Sim
	n     int
}

func (*scriptedMethod) Name() string { return "scripted" }

func (m *scriptedMethod) Check(req decision.Request, done func(decision.Result)) {
	legit := diffVerdicts[m.n%len(diffVerdicts)]
	m.n++
	m.clock.After(5*time.Millisecond, func() {
		done(decision.Result{Legitimate: legit, At: m.clock.Now()})
	})
}

// simOutcomes runs the compressed trace through the simulation's guard
// on the simulated clock.
func simOutcomes(bursts [][]pcap.Packet, avs string) []guard.Event {
	epoch := time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)
	clock := simtime.NewSim(epoch)
	rec := recognize.NewEcho(trafficgen.EchoAddr)
	rec.IdleGap = diffIdleGap
	rec.Tracker.ForceAddress(pcap.MustParseIPv4(avs))
	g := guard.New(clock, rec, &scriptedMethod{clock: clock}, "echo")
	var events []guard.Event
	g.OnEvent(func(e guard.Event) { events = append(events, e) })
	for i, b := range bursts {
		at := epoch.Add(time.Duration(i) * diffSpacing)
		clock.AdvanceTo(at)
		for _, p := range b {
			p.Time = at
			g.Feed(&p)
		}
	}
	clock.Advance(time.Second)
	return events
}

// wireOutcomes replays the same bursts, byte for byte, through
// StartLiveGuard on loopback, one write per burst, and reads each
// spike's outcome off the hold span the guard records when the spike
// is resolved.
func wireOutcomes(t *testing.T, bursts [][]pcap.Packet, want int) []spikeOutcome {
	t.Helper()
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			conn, err := sink.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()

	var (
		mu    sync.Mutex
		holds []trace.Span
		n     int
	)
	trace.Default.SetSink(func(s trace.Span) {
		if s.Stage == trace.StageLive && s.Name == "hold" {
			mu.Lock()
			holds = append(holds, s)
			mu.Unlock()
		}
	})
	defer trace.Default.SetSink(nil)
	g, err := StartLiveGuard("127.0.0.1:0", sink.Addr().String(), func(ctx context.Context) bool {
		mu.Lock()
		defer mu.Unlock()
		legit := diffVerdicts[n%len(diffVerdicts)]
		n++
		return legit
	}, diffIdleGap)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, err := net.DialTimeout("tcp", g.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	for i, b := range bursts {
		time.Sleep(time.Until(start.Add(time.Duration(i) * diffSpacing)))
		var buf []byte
		for _, p := range b {
			buf = append(buf, p.Payload...)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every spike resolving", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(holds) >= want
	})
	time.Sleep(2 * diffIdleGap) // nothing further may arrive
	mu.Lock()
	defer mu.Unlock()
	sort.SliceStable(holds, func(i, j int) bool { return holds[i].Start.Before(holds[j].Start) })
	out := make([]spikeOutcome, len(holds))
	for i, s := range holds {
		out[i] = spikeOutcome{kind: guard.EventCommand, released: s.Attr(trace.AttrOutcome) == trace.OutcomeRelease}
		if s.Attr("noncommand") == true {
			out[i].kind = guard.EventNonCommand
		}
	}
	return out
}

// bySpike orders events by spike start and reduces them to what both
// planes must agree on.
func bySpike(events []guard.Event) []spikeOutcome {
	sort.SliceStable(events, func(i, j int) bool { return events[i].SpikeStart.Before(events[j].SpikeStart) })
	out := make([]spikeOutcome, len(events))
	for i, e := range events {
		out[i] = spikeOutcome{kind: e.Kind, released: e.Released}
	}
	return out
}

// The simulation and the wire plane run one guard core, so the same
// traffic must get the same per-spike decisions on both clocks.
func TestSimAndWireDecideTheSameTrace(t *testing.T) {
	bursts, avs := diffTrace(t)
	sim := bySpike(simOutcomes(bursts, avs))

	var commands, drops, others int
	for _, o := range sim {
		switch {
		case o.kind == guard.EventNonCommand:
			others++
		case o.released:
			commands++
		default:
			commands++
			drops++
		}
	}
	if commands < 4 || drops == 0 || others == 0 {
		t.Fatalf("trace too thin to compare: %d commands (%d dropped), %d non-command spikes", commands, drops, others)
	}

	wire := wireOutcomes(t, bursts, len(sim))
	if len(wire) != len(sim) {
		t.Fatalf("wire resolved %d spikes, sim %d:\nwire %v\nsim  %v", len(wire), len(sim), wire, sim)
	}
	for i := range sim {
		if wire[i] != sim[i] {
			t.Fatalf("spike %d: wire %+v, sim %+v\nwire %v\nsim  %v", i, wire[i], sim[i], wire, sim)
		}
	}
}
