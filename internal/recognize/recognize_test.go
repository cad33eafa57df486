package recognize

import (
	"net/netip"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

var t0 = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

// classifyPackets runs one spike through a fresh Echo recognizer
// pinned to the spike's server, as Table I does, and returns how the
// spike was settled: ActionCommand, or ActionRelease for an unknown or
// response spike (EndSpike releases one still undecided). A spike with
// no packets starts nothing: ActionNone.
func classifyPackets(packets []pcap.Packet) Action {
	r := NewEcho(trafficgen.EchoAddr)
	r.Tracer = trace.New(0)
	if len(packets) > 0 {
		r.Tracker.ForceAddress(packets[0].DstIP)
	}
	for i := range packets {
		if a := r.Feed(&packets[i]); a == ActionCommand || a == ActionRelease {
			return a
		}
	}
	return r.EndSpike()
}

// classify builds a spike with the given packet lengths, 100 ms apart
// on the speaker's AVS flow, and classifies it.
func classify(t *testing.T, lengths []int) Action {
	t.Helper()
	server := pcap.MustParseIPv4("52.94.233.7")
	packets := make([]pcap.Packet, len(lengths))
	for i, l := range lengths {
		payload, err := pcap.AppData(l)
		if err != nil {
			t.Fatal(err)
		}
		packets[i] = pcap.Packet{
			Time:  t0.Add(time.Duration(i) * 100 * time.Millisecond),
			SrcIP: trafficgen.EchoAddr, SrcPort: 40001,
			DstIP: server, DstPort: trafficgen.TLSPort,
			Proto: pcap.TCP, Len: l, Payload: payload,
		}
	}
	return classifyPackets(packets)
}

// TestClassifyEchoSpikeTable pins the Echo rule. A spike is decided by
// its fifth packet, so markers past it change nothing: the p-138 "too
// late" row and both rows with response markers past the fifth packet
// are released for lacking command markers.
func TestClassifyEchoSpikeTable(t *testing.T) {
	tests := []struct {
		name    string
		lengths []int
		want    Action
	}{
		{name: "marker p-138 first", lengths: []int{138, 90, 90, 90, 90, 1000}, want: ActionCommand},
		{name: "marker p-75 fifth", lengths: []int{277, 90, 90, 90, 75, 1000}, want: ActionCommand},
		{name: "marker p-138 too late", lengths: []int{277, 90, 90, 90, 90, 138}, want: ActionRelease},
		{name: "fallback pattern a", lengths: []int{400, 131, 277, 131, 113}, want: ActionCommand},
		{name: "fallback pattern b", lengths: []int{250, 131, 113, 113, 113}, want: ActionCommand},
		{name: "fallback pattern c", lengths: []int{650, 131, 121, 277, 131}, want: ActionCommand},
		{name: "fallback first packet too small", lengths: []int{249, 131, 277, 131, 113}, want: ActionRelease},
		{name: "fallback first packet too large", lengths: []int{651, 131, 277, 131, 113}, want: ActionRelease},
		{name: "response markers early", lengths: []int{90, 77, 33, 90, 90}, want: ActionRelease},
		{name: "response markers at 6th/7th", lengths: []int{90, 90, 90, 90, 90, 77, 33}, want: ActionRelease},
		{name: "response markers beyond window", lengths: []int{90, 90, 90, 90, 90, 90, 77, 33}, want: ActionRelease},
		{name: "markers not adjacent", lengths: []int{77, 90, 33, 90, 90}, want: ActionRelease},
		{name: "markers reversed", lengths: []int{33, 77, 90, 90, 90}, want: ActionRelease},
		{name: "empty", lengths: nil, want: ActionNone},
		{name: "short unknown", lengths: []int{90, 90}, want: ActionRelease},
		{name: "response wins over command", lengths: []int{77, 33, 138, 90, 90}, want: ActionRelease},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := classify(t, tt.lengths); got != tt.want {
				t.Fatalf("classify(%v) = %v, want %v", tt.lengths, got, tt.want)
			}
		})
	}
}

func TestClassifyGeneratedSpikes(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(1))
	e.AnomalyRate = 0
	for i := 0; i < 200; i++ {
		inv := e.Invocation(t0.Add(time.Duration(i)*time.Minute), 2)
		for _, s := range inv.Spikes {
			got := classifyPackets(s.Packets)
			want := ActionCommand
			if s.Phase == trafficgen.PhaseResponse {
				want = ActionRelease
			}
			if got != want {
				t.Fatalf("invocation %d: %v spike settled as %v", i, s.Phase, got)
			}
		}
	}
}

// An anomalous command spike carries no known pattern: it is unknown
// to the rule and released.
func TestClassifyAnomalousSpikeIsUnknown(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(2))
	e.AnomalyRate = 1
	inv := e.Invocation(t0, 0)
	if got := classifyPackets(inv.CommandSpike().Packets); got != ActionRelease {
		t.Fatalf("anomalous spike settled as %v, want release", got)
	}
}

func TestIsHeartbeat(t *testing.T) {
	hb, err := pcap.AppData(trafficgen.HeartbeatLen)
	if err != nil {
		t.Fatal(err)
	}
	p := pcap.Packet{Len: trafficgen.HeartbeatLen, Payload: hb}
	if !IsHeartbeat(&p) {
		t.Fatal("41-byte app data not recognized as heartbeat")
	}
	big, err := pcap.AppData(100)
	if err != nil {
		t.Fatal(err)
	}
	if IsHeartbeat(&pcap.Packet{Len: 100, Payload: big}) {
		t.Fatal("100-byte packet recognized as heartbeat")
	}
}

func TestTrackerLearnsFromDNS(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(3))
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewAVSTracker(trafficgen.EchoAddr, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	for _, p := range boot {
		tr.Observe(&p)
	}
	addr, ok := tr.Current()
	if !ok || addr != e.AVSAddr() {
		t.Fatalf("tracker = %v (%v), want %v", addr, ok, e.AVSAddr())
	}
}

// TestTrackerIgnoresNonAAnswers feeds DNS responses for the tracked
// domain whose answer is not an A/IN record for the question's name —
// a TXT record, a CHAOS-class record, an answer for another name —
// each carrying four bytes that would parse as an address. None may
// re-target the tracker.
func TestTrackerIgnoresNonAAnswers(t *testing.T) {
	avs := netip.MustParseAddr("52.94.233.7")
	bogus := netip.MustParseAddr("6.6.6.6")
	tr := NewAVSTracker(trafficgen.EchoAddr, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	response := func(addr netip.Addr, patch func(answer []byte)) *pcap.Packet {
		b, err := pcap.EncodeDNSResponse(9, trafficgen.AVSDomain, addr)
		if err != nil {
			t.Fatal(err)
		}
		// The answer is the last 16 bytes: name pointer, TYPE, CLASS,
		// TTL, RDLENGTH, RDATA.
		patch(b[len(b)-16:])
		return &pcap.Packet{
			Time:  t0,
			SrcIP: trafficgen.RouterAddr, SrcPort: pcap.DNSPort,
			DstIP: trafficgen.EchoAddr, DstPort: 40001,
			Proto: pcap.UDP, Len: len(b), Payload: b,
		}
	}
	if !tr.Observe(response(avs, func([]byte) {})) {
		t.Fatal("a well-formed A answer did not set the tracker")
	}
	for name, patch := range map[string]func([]byte){
		"TXT":        func(a []byte) { a[3] = 16 },
		"AAAA":       func(a []byte) { a[3] = 28 },
		"class CH":   func(a []byte) { a[5] = 3 },
		"other name": func(a []byte) { a[1] = 0x20 },
	} {
		if tr.Observe(response(bogus, patch)) {
			t.Errorf("%s answer moved the tracker", name)
		}
		if got, _ := tr.Current(); got != avs {
			t.Fatalf("%s answer re-targeted the tracker to %v", name, got)
		}
	}
}

func TestTrackerFollowsCachedReconnectViaSignature(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(4))
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewAVSTracker(trafficgen.EchoAddr, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	for _, p := range boot {
		tr.Observe(&p)
	}
	reconnect := e.Reconnect(t0.Add(time.Hour), false /* no DNS */)
	for _, p := range reconnect {
		tr.Observe(&p)
	}
	addr, ok := tr.Current()
	if !ok || addr != e.AVSAddr() {
		t.Fatalf("tracker = %v after cached reconnect, want %v", addr, e.AVSAddr())
	}
}

func TestDNSOnlyTrackerMissesCachedReconnect(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(5))
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewAVSTracker(trafficgen.EchoAddr, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	tr.UseSignature = false
	for _, p := range boot {
		tr.Observe(&p)
	}
	old, _ := tr.Current()
	reconnect := e.Reconnect(t0.Add(time.Hour), false)
	for _, p := range reconnect {
		tr.Observe(&p)
	}
	addr, _ := tr.Current()
	if addr != old {
		t.Fatal("DNS-only tracker should be stuck on the stale address")
	}
	if addr == e.AVSAddr() {
		t.Fatal("DNS-only tracker unexpectedly learned the new address")
	}
}

func TestTrackerIgnoresOtherServerSignatures(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(6))
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewAVSTracker(trafficgen.EchoAddr, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	tr.UseDNS = false
	for _, p := range boot {
		tr.Observe(&p)
	}
	addr, ok := tr.Current()
	if !ok {
		t.Fatal("signature matching missed the AVS connection")
	}
	if addr != e.AVSAddr() {
		t.Fatalf("signature matched the wrong server: %v", addr)
	}
}

func TestTrackerForgetKeepsLiveFlows(t *testing.T) {
	tr := NewAVSTracker(trafficgen.EchoAddr, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	payload, err := pcap.AppData(trafficgen.AVSConnectSignature[0])
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(&pcap.Packet{
		Time:  t0,
		SrcIP: trafficgen.EchoAddr, SrcPort: 45000,
		DstIP: pcap.MustParseIPv4("52.94.233.7"), DstPort: 443,
		Proto: pcap.TCP, Len: trafficgen.AVSConnectSignature[0], Payload: payload,
	})
	tr.Forget()
	if len(tr.flows) != 1 {
		t.Fatalf("live flow dropped: %d flows", len(tr.flows))
	}
	// A mismatching packet kills the flow; Forget then drops it.
	bad, err := pcap.AppData(9999 % 2000)
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(&pcap.Packet{
		Time:  t0,
		SrcIP: trafficgen.EchoAddr, SrcPort: 45000,
		DstIP: pcap.MustParseIPv4("52.94.233.7"), DstPort: 443,
		Proto: pcap.TCP, Len: len(bad), Payload: bad,
	})
	tr.Forget()
	if len(tr.flows) != 0 {
		t.Fatalf("dead flow retained: %d flows", len(tr.flows))
	}
}

// feedAll pushes packets through the recognizer, returning the actions
// that change a spike's handling (hold, command, release).
func feedAll(r *Recognizer, packets []pcap.Packet) []Action {
	var actions []Action
	for _, p := range packets {
		if a := r.Feed(&p); a != ActionNone && a != ActionExtend {
			actions = append(actions, a)
		}
	}
	return actions
}

func TestRecognizerEchoEndToEnd(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(7))
	e.AnomalyRate = 0
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewEcho(trafficgen.EchoAddr)
	for _, p := range boot {
		r.Feed(&p)
	}
	hb := e.Heartbeats(t0, 2*time.Minute)
	for _, p := range hb {
		if a := r.Feed(&p); a != ActionNone {
			t.Fatalf("heartbeat triggered action %v", a)
		}
	}

	inv := e.Invocation(t0.Add(3*time.Minute), 2)
	actions := feedAll(r, inv.All())
	// Expected: Hold+Command for the command spike, then Hold+Release
	// per response spike.
	want := []Action{ActionHold, ActionCommand, ActionHold, ActionRelease, ActionHold, ActionRelease}
	if len(actions) != len(want) {
		t.Fatalf("actions = %v, want %v", actions, want)
	}
	for i := range want {
		if actions[i] != want[i] {
			t.Fatalf("actions = %v, want %v", actions, want)
		}
	}
}

func TestRecognizerEchoAnomalousCommandReleased(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(8))
	e.AnomalyRate = 1
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewEcho(trafficgen.EchoAddr)
	for _, p := range boot {
		r.Feed(&p)
	}
	inv := e.Invocation(t0.Add(time.Minute), 0)
	actions := feedAll(r, inv.All())
	if len(actions) != 2 || actions[0] != ActionHold || actions[1] != ActionRelease {
		t.Fatalf("actions = %v, want [hold release]", actions)
	}
}

func TestRecognizerEchoFollowsReconnect(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(9))
	e.AnomalyRate = 0
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewEcho(trafficgen.EchoAddr)
	for _, p := range boot {
		r.Feed(&p)
	}
	reconnect := e.Reconnect(t0.Add(10*time.Minute), false)
	for _, p := range reconnect {
		r.Feed(&p)
	}
	inv := e.Invocation(t0.Add(20*time.Minute), 0)
	actions := feedAll(r, inv.All())
	if len(actions) < 2 || actions[0] != ActionHold || actions[1] != ActionCommand {
		t.Fatalf("actions after reconnect = %v, want [hold command]", actions)
	}
}

func TestRecognizerEndSpikeReleasesShortSpike(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(10))
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewEcho(trafficgen.EchoAddr)
	for _, p := range boot {
		r.Feed(&p)
	}
	// Hand-craft a 2-packet spike (below the decision window).
	mk := func(at time.Time, l int) *pcap.Packet {
		payload, err := pcap.AppData(l)
		if err != nil {
			t.Fatal(err)
		}
		return &pcap.Packet{
			Time:  at,
			SrcIP: trafficgen.EchoAddr, SrcPort: 40001,
			DstIP: e.AVSAddr().As4(), DstPort: 443,
			Proto: pcap.TCP, Len: l, Payload: payload,
		}
	}
	start := t0.Add(5 * time.Minute)
	if a := r.Feed(mk(start, 90)); a != ActionHold {
		t.Fatalf("first packet action = %v", a)
	}
	if a := r.Feed(mk(start.Add(100*time.Millisecond), 101)); a != ActionExtend {
		t.Fatalf("second packet action = %v", a)
	}
	if a := r.EndSpike(); a != ActionRelease {
		t.Fatalf("EndSpike = %v, want release", a)
	}
	if a := r.EndSpike(); a != ActionNone {
		t.Fatalf("second EndSpike = %v, want none", a)
	}
}

func TestRecognizerGHM(t *testing.T) {
	g := trafficgen.NewGHM(rng.New(11))
	r := NewGHM(trafficgen.GHMAddr)
	for i := 0; i < 20; i++ {
		inv := g.Invocation(t0.Add(time.Duration(i) * 5 * time.Minute))
		commands := 0
		for _, p := range inv.All() {
			if a := r.Feed(&p); a == ActionCommand {
				commands++
			}
		}
		if commands != 1 {
			t.Fatalf("invocation %d: %d command actions, want 1", i, commands)
		}
	}
}

func TestRecognizerGHMIgnoresDNS(t *testing.T) {
	r := NewGHM(trafficgen.GHMAddr)
	q, err := pcap.EncodeDNSQuery(1, trafficgen.GoogleDomain)
	if err != nil {
		t.Fatal(err)
	}
	p := pcap.Packet{
		Time:  t0,
		SrcIP: trafficgen.GHMAddr, SrcPort: 5353,
		DstIP: trafficgen.RouterAddr, DstPort: pcap.DNSPort,
		Proto: pcap.UDP, Len: len(q), Payload: q,
	}
	if a := r.Feed(&p); a != ActionNone {
		t.Fatalf("DNS packet triggered %v", a)
	}
}

func TestRecognizerIgnoresBackgroundChatter(t *testing.T) {
	// A full hour of laptop/TV traffic — including marker-valued
	// packet lengths — must produce no recognizer actions, even
	// interleaved with the speaker's own flow.
	src := rng.New(77)
	e := trafficgen.NewEcho(src.Split("echo"))
	e.AnomalyRate = 0
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	background := trafficgen.Background(src.Split("bg"), t0, time.Hour)
	inv := e.Invocation(t0.Add(30*time.Minute), 1)

	merged := append(append(boot, background...), inv.All()...)
	pcap.SortByTime(merged)

	r := NewEcho(trafficgen.EchoAddr)
	var commands, holds int
	for _, p := range merged {
		switch r.Feed(&p) {
		case ActionCommand:
			commands++
		case ActionHold:
			holds++
		}
	}
	if commands != 1 {
		t.Fatalf("commands = %d, want exactly the speaker's own invocation", commands)
	}
	// Holds: boot connect spike + invocation spikes only.
	if holds > 4 {
		t.Fatalf("holds = %d — background traffic triggered holds", holds)
	}
}

func TestBackgroundTrafficNeverFromSpeaker(t *testing.T) {
	bg := trafficgen.Background(rng.New(78), t0, 10*time.Minute)
	if len(bg) == 0 {
		t.Fatal("no background traffic generated")
	}
	for _, p := range bg {
		if p.SrcIP == trafficgen.EchoAddr || p.SrcIP == trafficgen.GHMAddr {
			t.Fatalf("background packet claims a speaker IP: %v", p.Src())
		}
	}
}

func TestRecognizerIgnoresOtherHosts(t *testing.T) {
	r := NewEcho(trafficgen.EchoAddr)
	payload, err := pcap.AppData(500)
	if err != nil {
		t.Fatal(err)
	}
	p := pcap.Packet{
		Time:  t0,
		SrcIP: pcap.MustParseIPv4("192.168.1.50"), SrcPort: 40000,
		DstIP: pcap.MustParseIPv4("52.94.233.1"), DstPort: 443,
		Proto: pcap.TCP, Len: 500, Payload: payload,
	}
	if a := r.Feed(&p); a != ActionNone {
		t.Fatalf("other host's packet triggered %v", a)
	}
}

// The recognizer keeps no packets: once its state is warm, a whole
// Echo command spike — hold, the classifying marker, and every packet
// that extends the decided spike — allocates nothing, the marker event
// the flight recorder keeps included.
func TestEchoCommandSpikeAllocatesOnlyItsMarker(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(7))
	e.AnomalyRate = 0
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewEcho(trafficgen.EchoAddr)
	for _, p := range boot {
		r.Feed(&p)
	}
	spike := e.Invocation(t0.Add(time.Minute), 0).CommandSpike().Packets
	if len(spike) <= commandWindow {
		t.Fatalf("command spike has %d packets, want more than the %d-packet head", len(spike), commandWindow)
	}
	feedSpike := func() {
		for i := range spike {
			spike[i].Time = spike[i].Time.Add(time.Minute) // a fresh spike each run
			r.Feed(&spike[i])
		}
	}
	feedSpike()
	if allocs := testing.AllocsPerRun(20, func() { r.traceMarker("phase1_marker", t0) }); allocs != 0 {
		t.Fatalf("a marker event allocated %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(20, feedSpike); allocs != 0 {
		t.Fatalf("a %d-packet command spike allocated %v times", len(spike), allocs)
	}
}
