package guard

import (
	"testing"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// countingSink is a HoldSink that only counts.
type countingSink struct {
	offset, holds, releases, drops int
}

func (s *countingSink) HoldCommand(trace.CommandID) int {
	s.holds++
	s.offset += 100
	return s.offset - 100
}

func (s *countingSink) ReleaseTo(int) error { return nil }
func (s *countingSink) Release() error      { s.releases++; return nil }
func (s *countingSink) Drop() int           { s.drops++; return 0 }

// laterMethod allows every command a fixed delay after it is asked,
// on one simulated event it reschedules per query: a decision method
// that allocates nothing itself.
type laterMethod struct {
	clock *simtime.Sim
	delay time.Duration
	ev    *simtime.Event
	fire  func()
	done  func(decision.Result)
}

func (*laterMethod) Name() string { return "later" }

func (m *laterMethod) Check(_ decision.Request, done func(decision.Result)) {
	m.done = done
	at := m.clock.Now().Add(m.delay)
	if m.ev == nil {
		m.fire = m.deliver
		m.ev = m.clock.Schedule(at, m.fire)
		return
	}
	m.clock.Reschedule(m.ev, at)
}

func (m *laterMethod) deliver() {
	m.done(decision.Result{Legitimate: true, At: m.clock.Now()})
}

// Once the guard is warm, a whole Echo command — the spike, its
// recognition, the dispatch, the verdict and the release, every span
// traced — allocates nothing.
func TestEchoCommandAllocatesNothing(t *testing.T) {
	clock := simtime.NewSim(epoch)
	e := trafficgen.NewEcho(rng.New(7))
	e.AnomalyRate = 0
	boot, err := e.Boot(epoch)
	if err != nil {
		t.Fatal(err)
	}
	method := &laterMethod{clock: clock, delay: 1500 * time.Millisecond}
	g := New(clock, recognize.NewEcho(trafficgen.EchoAddr), method, "echo")
	g.Tracer = trace.New(trace.DefaultRecorderSize)
	sink := &countingSink{}
	g.Sink = sink
	var released int
	g.OnEvent(func(ev Event) {
		if ev.Kind == EventCommand && ev.Released {
			released++
		}
	})
	for i := range boot {
		clock.AdvanceTo(boot[i].Time)
		g.Feed(&boot[i])
	}
	spike := e.Invocation(epoch.Add(time.Minute), 0).CommandSpike().Packets
	command := func() {
		for i := range spike {
			spike[i].Time = spike[i].Time.Add(time.Minute) // a fresh spike each run
			clock.AdvanceTo(spike[i].Time)
			g.Feed(&spike[i])
		}
		clock.AdvanceTo(spike[len(spike)-1].Time.Add(10 * time.Second))
	}
	command()
	command()
	before := released
	allocs := testing.AllocsPerRun(20, command)
	if allocs != 0 {
		t.Fatalf("a %d-packet Echo command allocated %v times", len(spike), allocs)
	}
	if got := released - before; got != 21 { // AllocsPerRun's warm-up run plus 20
		t.Fatalf("%d commands released, want 21", got)
	}
	if sink.releases != sink.holds-sink.drops || sink.drops != 0 {
		t.Fatalf("sink: %d holds, %d releases, %d drops", sink.holds, sink.releases, sink.drops)
	}
}
