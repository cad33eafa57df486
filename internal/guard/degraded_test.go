package guard

import (
	"testing"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trafficgen"
)

// pathDeadMethod is a decision stub reporting the query path dead.
type pathDeadMethod struct{}

func (pathDeadMethod) Name() string { return "path-dead-stub" }

func (pathDeadMethod) Check(req decision.Request, done func(decision.Result)) {
	done(decision.Result{
		Legitimate: false,
		Reason:     decision.ReasonPathDead,
		At:         req.At,
		PathDead:   true,
	})
}

// degradedFixture builds a guard whose every query reports path-dead.
func degradedFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	f := &fixture{clock: simtime.NewSim(epoch)}
	root := rng.New(seed)
	f.echo = trafficgen.NewEcho(root.Split("traffic"))
	f.echo.AnomalyRate = 0
	rec := recognize.NewEcho(trafficgen.EchoAddr)
	f.guard = New(f.clock, rec, pathDeadMethod{}, "echo")
	f.events = collect(f.guard)
	boot, err := f.echo.Boot(epoch)
	if err != nil {
		t.Fatal(err)
	}
	f.feed(boot)
	return f
}

// oneDegradedEvent runs one invocation through the guard and returns
// its (degraded) command event.
func oneDegradedEvent(t *testing.T, f *fixture) Event {
	t.Helper()
	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 1)
	f.feed(inv.All())
	f.settle()
	cmds := commandEvents(*f.events)
	if len(cmds) != 1 {
		t.Fatalf("command events = %d, want 1", len(cmds))
	}
	if !cmds[0].Degraded {
		t.Fatalf("event not marked degraded: %+v", cmds[0])
	}
	return cmds[0]
}

// The default policy is fail-closed: a path-dead verdict blocks the
// held traffic, so taking the push channel down never becomes a free
// pass.
func TestDegradedDefaultFailClosed(t *testing.T) {
	f := degradedFixture(t, 41)
	if e := oneDegradedEvent(t, f); e.Released {
		t.Fatalf("fail-closed guard released a path-dead command: %+v", e)
	}
}

// Fail-open releases held traffic when the query path is dead — the
// availability-first configuration.
func TestDegradedFailOpenReleases(t *testing.T) {
	f := degradedFixture(t, 42)
	f.guard.Degraded = DegradedFailOpen
	if e := oneDegradedEvent(t, f); !e.Released {
		t.Fatalf("fail-open guard blocked a path-dead command: %+v", e)
	}
}

// An evidence-based verdict is never routed through the degraded
// policy: a fail-open guard still blocks a normally-failed check.
func TestEvidenceVerdictIgnoresDegradedPolicy(t *testing.T) {
	f := newFixture(t, 43)
	f.guard.Degraded = DegradedFailOpen
	f.pos.At.X, f.pos.At.Y = 10, 8 // owner far from the speaker
	inv := f.echo.Invocation(f.clock.Now().Add(time.Minute), 1)
	f.feed(inv.All())
	f.settle()
	cmds := commandEvents(*f.events)
	if len(cmds) != 1 {
		t.Fatalf("command events = %d, want 1", len(cmds))
	}
	if cmds[0].Released || cmds[0].Degraded {
		t.Fatalf("evidence-based block routed through the degraded policy: %+v", cmds[0])
	}
}

// Packets from unknown source IPs are counted instead of silently
// vanishing, and each new unknown IP traces exactly once.
func TestRouterCountsUnknownSpeakers(t *testing.T) {
	clock := simtime.NewSim(epoch)
	r := NewRouter()
	mustAdd(t, r, "10.0.0.2", New(clock, recognize.NewEcho(pcap.MustParseIPv4("10.0.0.2")), pathDeadMethod{}, "echo"))

	before := mUnknownSpeaker.Value()
	for i := 0; i < 5; i++ {
		r.Feed(&pcap.Packet{Time: epoch, SrcIP: pcap.MustParseIPv4("10.0.0.77"), DstIP: pcap.MustParseIPv4("8.8.8.8"), Proto: pcap.TCP, Len: 100})
	}
	if got := mUnknownSpeaker.Value() - before; got != 5 {
		t.Fatalf("unknown-speaker counter advanced by %d, want 5", got)
	}
	if len(r.unknownTraced) != 1 || !r.unknownTraced[pcap.MustParseIPv4("10.0.0.77")] {
		t.Fatalf("unknownTraced = %v, want exactly the one unknown IP", r.unknownTraced)
	}
	// Known speaker and DNS-to-speaker paths stay uncounted.
	before = mUnknownSpeaker.Value()
	r.Feed(&pcap.Packet{Time: epoch, SrcIP: pcap.MustParseIPv4("10.0.0.2"), DstIP: pcap.MustParseIPv4("8.8.8.8"), Proto: pcap.TCP, Len: 100})
	r.Feed(&pcap.Packet{Time: epoch, SrcIP: pcap.MustParseIPv4("192.168.1.1"), DstIP: pcap.MustParseIPv4("10.0.0.2"), Proto: pcap.UDP, Len: 80})
	if got := mUnknownSpeaker.Value() - before; got != 0 {
		t.Fatalf("known-speaker traffic advanced the unknown counter by %d", got)
	}
}
