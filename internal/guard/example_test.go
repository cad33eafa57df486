package guard_test

import (
	"bytes"
	"fmt"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/guard"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// allowMethod approves every command the moment it is asked.
type allowMethod struct{ clock *simtime.Sim }

func (allowMethod) Name() string { return "always-allow" }

func (m allowMethod) Check(req decision.Request, done func(decision.Result)) {
	done(decision.Result{Legitimate: true, Reason: decision.ReasonStatic, At: m.clock.Now()})
}

// ExampleGuard_OnEvent correlates the guard's event callback with the
// tracing layer: the Event's CommandID selects that command's spans
// from the flight recorder, and the same spans export as JSONL.
func ExampleGuard_OnEvent() {
	start := time.Date(2023, 6, 1, 9, 0, 0, 0, time.UTC)
	clock := simtime.NewSim(start)
	tr := trace.New(64)

	g := guard.New(clock, recognize.NewGHM(trafficgen.GHMAddr), allowMethod{clock}, "ghm")
	g.Tracer = tr
	g.OnEvent(func(e guard.Event) {
		fmt.Printf("command %d: released=%v after holding %d packet(s)\n",
			e.CommandID, e.Released, e.HeldPackets)
		for _, s := range tr.Snapshot() {
			if s.Command == e.CommandID {
				fmt.Printf("  %s/%s\n", s.Stage, s.Name)
			}
		}
	})

	clock.AdvanceTo(start)
	g.Feed(&pcap.Packet{
		Time:  start,
		SrcIP: trafficgen.GHMAddr, SrcPort: 40001,
		DstIP: pcap.MustParseIPv4("142.250.1.1"), DstPort: trafficgen.TLSPort,
		Proto: pcap.TCP, Len: 500,
	})
	clock.Advance(5 * time.Second)

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr.Snapshot()); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("exported %d spans as JSONL\n", bytes.Count(buf.Bytes(), []byte("\n")))
	// Output:
	// command 1: released=true after holding 1 packet(s)
	//   guard/spike_start
	//   recognize/classify
	//   decision/always-allow
	//   guard/hold
	// exported 4 spans as JSONL
}
