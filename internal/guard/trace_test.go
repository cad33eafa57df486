package guard

import (
	"net/netip"
	"testing"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// slowMethod is a decision method whose verdict arrives after a fixed
// simulated delay — long enough for a second command to be recognized
// while the first query is still pending.
type slowMethod struct {
	clock  *simtime.Sim
	delay  time.Duration
	allow  bool
	checks int
}

func (m *slowMethod) Name() string { return "slow-test" }

func (m *slowMethod) Check(req decision.Request, done func(decision.Result)) {
	m.checks++
	m.clock.After(m.delay, func() {
		done(decision.Result{Legitimate: m.allow, Reason: "slow", At: m.clock.Now()})
	})
}

// ghmPacket builds one GHM cloud-flow packet (any spike on the TLS
// port is immediately a command for the GHM recognizer).
func ghmPacket(at time.Time, srcPort int) pcap.Packet {
	return pcap.Packet{
		Time:  at,
		SrcIP: trafficgen.GHMIP, SrcPort: srcPort,
		DstIP: "142.250.1.1", DstPort: trafficgen.TLSPort,
		Proto: pcap.TCP, Len: 500,
	}
}

// TestSecondCommandWhilePendingIsQueued is the regression test for the
// lost-episode bug: a second recognized command arriving while a
// decision query was pending used to hit queryDecision's early return
// — held forever, with no timer and no pending query, and no event
// ever recorded. It must now be queued and adjudicated right after
// the in-flight verdict.
func TestSecondCommandWhilePendingIsQueued(t *testing.T) {
	clock := simtime.NewSim(epoch)
	m := &slowMethod{clock: clock, delay: 5 * time.Second, allow: true}
	g := New(clock, recognize.NewGHM(trafficgen.GHMIP), m, "ghm")
	events := collect(g)

	// First command spike at t=0; its verdict is due at t=5s.
	clock.AdvanceTo(epoch)
	g.Feed(ghmPacket(epoch, 40001))
	// Second spike 2 s later — a new spike (past the idle gap), and
	// recognized while the first query is still in flight.
	second := epoch.Add(2 * time.Second)
	clock.AdvanceTo(second)
	g.Feed(ghmPacket(second, 40002))

	clock.Advance(30 * time.Second)

	cmds := commandEvents(*events)
	if len(cmds) != 2 {
		t.Fatalf("command events = %d, want 2 (second episode lost)", len(cmds))
	}
	if m.checks != 2 {
		t.Fatalf("decision checks = %d, want 2", m.checks)
	}
	if cmds[0].CommandID == cmds[1].CommandID {
		t.Fatalf("both episodes share command ID %d", cmds[0].CommandID)
	}
	if cmds[0].CommandID == 0 || cmds[1].CommandID == 0 {
		t.Fatal("episode without a command ID")
	}
	// The queued query must start when the first verdict arrives, not
	// when the second spike was recognized.
	if got := cmds[1].QueryStart; !got.Equal(cmds[0].DecisionAt) {
		t.Fatalf("queued query started at %v, want the first verdict time %v", got, cmds[0].DecisionAt)
	}
	if !cmds[1].Released {
		t.Fatal("queued command never released")
	}
	// The second episode's span set must include the queued marker.
	if !hasSpan(trace.Default.Snapshot(), cmds[1].CommandID, trace.StageGuard, "query_queued") {
		t.Fatal("no query_queued span for the second episode")
	}
}

// TestQueuedCommandsDrainInOrder floods the guard with three command
// spikes inside one decision window and checks all three complete, in
// arrival order.
func TestQueuedCommandsDrainInOrder(t *testing.T) {
	clock := simtime.NewSim(epoch)
	m := &slowMethod{clock: clock, delay: 10 * time.Second, allow: false}
	g := New(clock, recognize.NewGHM(trafficgen.GHMIP), m, "ghm")
	events := collect(g)

	for i := 0; i < 3; i++ {
		at := epoch.Add(time.Duration(i) * 2 * time.Second)
		clock.AdvanceTo(at)
		g.Feed(ghmPacket(at, 41000+i))
	}
	clock.Advance(2 * time.Minute)

	cmds := commandEvents(*events)
	if len(cmds) != 3 {
		t.Fatalf("command events = %d, want 3", len(cmds))
	}
	for i := 1; i < len(cmds); i++ {
		if cmds[i].CommandID <= cmds[i-1].CommandID {
			t.Fatalf("episodes out of order: %d then %d", cmds[i-1].CommandID, cmds[i].CommandID)
		}
		if cmds[i].QueryStart.Before(cmds[i-1].DecisionAt) {
			t.Fatalf("query %d started before verdict %d arrived", i, i-1)
		}
	}
}

// hasSpan reports whether spans contains a span for the command with
// the given stage and name.
func hasSpan(spans []trace.Span, id trace.CommandID, stage, name string) bool {
	for _, s := range spans {
		if s.Command == id && s.Stage == stage && s.Name == name {
			return true
		}
	}
	return false
}

// spansFor filters the flight recorder by command ID.
func spansFor(spans []trace.Span, id trace.CommandID) []trace.Span {
	var out []trace.Span
	for _, s := range spans {
		if s.Command == id {
			out = append(out, s)
		}
	}
	return out
}

// TestRouterDNSResponseFeedsTracker covers Router.Feed's router→
// speaker DNS delivery: the guard's tracker must learn the cloud
// address from a DNS response addressed to its speaker, and the
// voice-command episode recognized on that flow must carry one
// command ID across its recognize, guard, and decision spans.
func TestRouterDNSResponseFeedsTracker(t *testing.T) {
	clock := simtime.NewSim(epoch)
	m := &slowMethod{clock: clock, delay: time.Second, allow: true}
	rec := recognize.NewEcho(trafficgen.EchoIP)
	g := New(clock, rec, m, "echo")
	events := collect(g)

	router := NewRouter()
	router.Add(trafficgen.EchoIP, g)

	// The DNS response travels router→speaker: its SrcIP is not a
	// registered speaker, so only the DstIP fallback delivers it.
	avsAddr := netip.MustParseAddr("52.119.196.80")
	payload, err := pcap.EncodeDNSResponse(7, trafficgen.AVSDomain, avsAddr)
	if err != nil {
		t.Fatal(err)
	}
	clock.AdvanceTo(epoch)
	router.Feed(pcap.Packet{
		Time:  epoch,
		SrcIP: trafficgen.RouterIP, SrcPort: pcap.DNSPort,
		DstIP: trafficgen.EchoIP, DstPort: 53211,
		Proto: pcap.UDP, Len: len(payload), Payload: payload,
	})
	if addr, ok := rec.Tracker.Current(); !ok || addr != avsAddr {
		t.Fatalf("tracker did not learn the DNS-announced address: %v, %v", addr, ok)
	}

	// A command spike on the learned flow: the p-138 phase-1 marker
	// inside the first five packets.
	start := epoch.Add(2 * time.Second)
	for i, wireLen := range []int{277, 138, 90, 113, 131} {
		at := start.Add(time.Duration(i) * 50 * time.Millisecond)
		payload, err := pcap.AppData(wireLen)
		if err != nil {
			t.Fatal(err)
		}
		clock.AdvanceTo(at)
		router.Feed(pcap.Packet{
			Time:  at,
			SrcIP: trafficgen.EchoIP, SrcPort: 49000,
			DstIP: avsAddr.String(), DstPort: trafficgen.TLSPort,
			Proto: pcap.TCP, Len: wireLen, Payload: payload,
		})
	}
	clock.Advance(30 * time.Second)

	cmds := commandEvents(*events)
	if len(cmds) != 1 {
		t.Fatalf("command events = %d, want 1", len(cmds))
	}
	id := cmds[0].CommandID
	if id == 0 {
		t.Fatal("episode has no command ID")
	}
	got := spansFor(trace.Default.Snapshot(), id)
	for _, want := range []struct{ stage, name string }{
		{trace.StageGuard, "spike_start"},
		{trace.StageRecognize, "phase1_marker"},
		{trace.StageRecognize, "classify"},
		{trace.StageDecision, "slow-test"},
		{trace.StageGuard, "hold"},
	} {
		if !hasSpan(got, id, want.stage, want.name) {
			t.Fatalf("command %d missing span %s/%s; got %+v", id, want.stage, want.name, got)
		}
	}
}
