package recognize

import (
	"net/netip"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

var t0 = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

func TestClassifyEchoSpikeTable(t *testing.T) {
	tests := []struct {
		name    string
		lengths []int
		want    SpikeClass
	}{
		{name: "marker p-138 first", lengths: []int{138, 90, 90, 90, 90, 1000}, want: ClassCommand},
		{name: "marker p-75 fifth", lengths: []int{277, 90, 90, 90, 75, 1000}, want: ClassCommand},
		{name: "marker p-138 too late", lengths: []int{277, 90, 90, 90, 90, 138}, want: ClassUnknown},
		{name: "fallback pattern a", lengths: []int{400, 131, 277, 131, 113}, want: ClassCommand},
		{name: "fallback pattern b", lengths: []int{250, 131, 113, 113, 113}, want: ClassCommand},
		{name: "fallback pattern c", lengths: []int{650, 131, 121, 277, 131}, want: ClassCommand},
		{name: "fallback first packet too small", lengths: []int{249, 131, 277, 131, 113}, want: ClassUnknown},
		{name: "fallback first packet too large", lengths: []int{651, 131, 277, 131, 113}, want: ClassUnknown},
		{name: "response markers early", lengths: []int{90, 77, 33, 90, 90}, want: ClassResponse},
		{name: "response markers at 6th/7th", lengths: []int{90, 90, 90, 90, 90, 77, 33}, want: ClassResponse},
		{name: "response markers beyond window", lengths: []int{90, 90, 90, 90, 90, 90, 77, 33}, want: ClassUnknown},
		{name: "markers not adjacent", lengths: []int{77, 90, 33, 90, 90}, want: ClassUnknown},
		{name: "markers reversed", lengths: []int{33, 77, 90, 90, 90}, want: ClassUnknown},
		{name: "empty", lengths: nil, want: ClassUnknown},
		{name: "short unknown", lengths: []int{90, 90}, want: ClassUnknown},
		{name: "response wins over command", lengths: []int{77, 33, 138, 90, 90}, want: ClassResponse},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyEchoSpike(tt.lengths); got != tt.want {
				t.Fatalf("ClassifyEchoSpike(%v) = %v, want %v", tt.lengths, got, tt.want)
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
			got := ClassifyEchoSpike(s.Lengths())
			want := ClassCommand
			if s.Phase == trafficgen.PhaseResponse {
				want = ClassResponse
			}
			if got != want {
				t.Fatalf("invocation %d: %v spike classified %v (lengths %v)", i, s.Phase, got, s.Lengths())
			}
		}
	}
}

func TestClassifyAnomalousSpikeIsUnknown(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(2))
	e.AnomalyRate = 1
	inv := e.Invocation(t0, 0)
	if got := ClassifyEchoSpike(inv.CommandSpike().Lengths()); got != ClassUnknown {
		t.Fatalf("anomalous spike classified %v, want unknown", got)
	}
}

func TestClassifyNaive(t *testing.T) {
	if ClassifyNaive([]int{90}) != ClassCommand {
		t.Fatal("naive should call any spike a command")
	}
	if ClassifyNaive(nil) != ClassUnknown {
		t.Fatal("naive on empty should be unknown")
	}
}

func TestIsHeartbeat(t *testing.T) {
	hb, err := pcap.AppData(trafficgen.HeartbeatLen)
	if err != nil {
		t.Fatal(err)
	}
	p := pcap.Packet{Len: trafficgen.HeartbeatLen, Payload: hb}
	if !IsHeartbeat(p) {
		t.Fatal("41-byte app data not recognized as heartbeat")
	}
	big, err := pcap.AppData(100)
	if err != nil {
		t.Fatal(err)
	}
	if IsHeartbeat(pcap.Packet{Len: 100, Payload: big}) {
		t.Fatal("100-byte packet recognized as heartbeat")
	}
}

func TestTrackerLearnsFromDNS(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(3))
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	for _, p := range boot {
		tr.Observe(p)
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
	tr := NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	response := func(addr netip.Addr, patch func(answer []byte)) pcap.Packet {
		b, err := pcap.EncodeDNSResponse(9, trafficgen.AVSDomain, addr)
		if err != nil {
			t.Fatal(err)
		}
		// The answer is the last 16 bytes: name pointer, TYPE, CLASS,
		// TTL, RDLENGTH, RDATA.
		patch(b[len(b)-16:])
		return pcap.Packet{
			Time:  t0,
			SrcIP: trafficgen.RouterIP, SrcPort: pcap.DNSPort,
			DstIP: trafficgen.EchoIP, DstPort: 40001,
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
	tr := NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	for _, p := range boot {
		tr.Observe(p)
	}
	reconnect := e.Reconnect(t0.Add(time.Hour), false /* no DNS */)
	for _, p := range reconnect {
		tr.Observe(p)
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
	tr := NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	tr.UseSignature = false
	for _, p := range boot {
		tr.Observe(p)
	}
	old, _ := tr.Current()
	reconnect := e.Reconnect(t0.Add(time.Hour), false)
	for _, p := range reconnect {
		tr.Observe(p)
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
	tr := NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	tr.UseDNS = false
	for _, p := range boot {
		tr.Observe(p)
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
	tr := NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	payload, err := pcap.AppData(trafficgen.AVSConnectSignature[0])
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(pcap.Packet{
		Time:  t0,
		SrcIP: trafficgen.EchoIP, SrcPort: 45000,
		DstIP: "52.94.233.7", DstPort: 443,
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
	tr.Observe(pcap.Packet{
		Time:  t0,
		SrcIP: trafficgen.EchoIP, SrcPort: 45000,
		DstIP: "52.94.233.7", DstPort: 443,
		Proto: pcap.TCP, Len: len(bad), Payload: bad,
	})
	tr.Forget()
	if len(tr.flows) != 0 {
		t.Fatalf("dead flow retained: %d flows", len(tr.flows))
	}
}

// feedAll pushes packets through the recognizer, returning the actions
// with the packet index they occurred at.
func feedAll(r *Recognizer, packets []pcap.Packet) []Action {
	var actions []Action
	for _, p := range packets {
		if a := r.Feed(p); a != ActionNone {
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
	r := NewEcho(trafficgen.EchoIP)
	for _, p := range boot {
		r.Feed(p)
	}
	hb := e.Heartbeats(t0, 2*time.Minute)
	for _, p := range hb {
		if a := r.Feed(p); a != ActionNone {
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
	r := NewEcho(trafficgen.EchoIP)
	for _, p := range boot {
		r.Feed(p)
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
	r := NewEcho(trafficgen.EchoIP)
	for _, p := range boot {
		r.Feed(p)
	}
	reconnect := e.Reconnect(t0.Add(10*time.Minute), false)
	for _, p := range reconnect {
		r.Feed(p)
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
	r := NewEcho(trafficgen.EchoIP)
	for _, p := range boot {
		r.Feed(p)
	}
	// Hand-craft a 2-packet spike (below the decision window).
	mk := func(at time.Time, l int) pcap.Packet {
		payload, err := pcap.AppData(l)
		if err != nil {
			t.Fatal(err)
		}
		return pcap.Packet{
			Time:  at,
			SrcIP: trafficgen.EchoIP, SrcPort: 40001,
			DstIP: e.AVSAddr().String(), DstPort: 443,
			Proto: pcap.TCP, Len: l, Payload: payload,
		}
	}
	start := t0.Add(5 * time.Minute)
	if a := r.Feed(mk(start, 90)); a != ActionHold {
		t.Fatalf("first packet action = %v", a)
	}
	if a := r.Feed(mk(start.Add(100*time.Millisecond), 101)); a != ActionNone {
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
	r := NewGHM(trafficgen.GHMIP)
	for i := 0; i < 20; i++ {
		inv := g.Invocation(t0.Add(time.Duration(i) * 5 * time.Minute))
		commands := 0
		for _, p := range inv.All() {
			if a := r.Feed(p); a == ActionCommand {
				commands++
			}
		}
		if commands != 1 {
			t.Fatalf("invocation %d: %d command actions, want 1", i, commands)
		}
	}
}

func TestRecognizerGHMIgnoresDNS(t *testing.T) {
	r := NewGHM(trafficgen.GHMIP)
	q, err := pcap.EncodeDNSQuery(1, trafficgen.GoogleDomain)
	if err != nil {
		t.Fatal(err)
	}
	p := pcap.Packet{
		Time:  t0,
		SrcIP: trafficgen.GHMIP, SrcPort: 5353,
		DstIP: trafficgen.RouterIP, DstPort: pcap.DNSPort,
		Proto: pcap.UDP, Len: len(q), Payload: q,
	}
	if a := r.Feed(p); a != ActionNone {
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

	r := NewEcho(trafficgen.EchoIP)
	var commands, holds int
	for _, p := range merged {
		switch r.Feed(p) {
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
		if p.SrcIP == trafficgen.EchoIP || p.SrcIP == trafficgen.GHMIP {
			t.Fatalf("background packet claims a speaker IP: %v", p.Src())
		}
	}
}

func TestRecognizerIgnoresOtherHosts(t *testing.T) {
	r := NewEcho(trafficgen.EchoIP)
	payload, err := pcap.AppData(500)
	if err != nil {
		t.Fatal(err)
	}
	p := pcap.Packet{
		Time:  t0,
		SrcIP: "192.168.1.50", SrcPort: 40000,
		DstIP: "52.94.233.1", DstPort: 443,
		Proto: pcap.TCP, Len: 500, Payload: payload,
	}
	if a := r.Feed(p); a != ActionNone {
		t.Fatalf("other host's packet triggered %v", a)
	}
}
