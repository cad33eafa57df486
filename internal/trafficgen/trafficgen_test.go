package trafficgen

import (
	"math"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

var t0 = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

func TestEchoBootContainsAVSSignature(t *testing.T) {
	e := NewEcho(rng.New(1))
	packets, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	// The AVS connection's application-data lengths must begin with
	// the published signature.
	avs := pcap.IPv4(e.AVSAddr().As4())
	var lens []int
	for _, p := range packets {
		if p.DstIP == avs && pcap.IsAppData(&p) {
			lens = append(lens, p.Len)
		}
	}
	if len(lens) < len(AVSConnectSignature) {
		t.Fatalf("only %d AVS app-data packets", len(lens))
	}
	for i, want := range AVSConnectSignature {
		if lens[i] != want {
			t.Fatalf("AVS signature[%d] = %d, want %d (got %v)", i, lens[i], want, lens[:len(AVSConnectSignature)])
		}
	}
}

func TestEchoBootIncludesDNSForAVS(t *testing.T) {
	e := NewEcho(rng.New(1))
	packets, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range packets {
		if msg, ok := pcap.IsDNSResponse(&p); ok && msg.Name == AVSDomain {
			if msg.Addr.String() != e.AVSAddr().String() {
				t.Fatalf("DNS answer %v != generator AVS addr %v", msg.Addr, e.AVSAddr())
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no DNS response for the AVS domain in boot traffic")
	}
}

func TestOtherServerSignaturesDiffer(t *testing.T) {
	for _, srv := range OtherAmazonServers {
		if len(srv.Signature) == len(AVSConnectSignature) {
			same := true
			for i := range srv.Signature {
				if srv.Signature[i] != AVSConnectSignature[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s signature equals the AVS signature", srv.Domain)
			}
		}
		// No other signature may be a prefix-superset that matches the
		// full AVS signature.
		n := len(AVSConnectSignature)
		if len(srv.Signature) >= n {
			match := true
			for i := 0; i < n; i++ {
				if srv.Signature[i] != AVSConnectSignature[i] {
					match = false
					break
				}
			}
			if match {
				t.Fatalf("%s signature has the AVS signature as a prefix", srv.Domain)
			}
		}
	}
}

func TestEchoHeartbeats(t *testing.T) {
	e := NewEcho(rng.New(2))
	hb := e.Heartbeats(t0, 95*time.Second)
	if len(hb) != 3 {
		t.Fatalf("heartbeats = %d, want 3 over 95 s", len(hb))
	}
	for i, p := range hb {
		if p.Len != HeartbeatLen {
			t.Fatalf("heartbeat %d length = %d, want %d", i, p.Len, HeartbeatLen)
		}
		want := t0.Add(time.Duration(i+1) * HeartbeatInterval)
		if !p.Time.Equal(want) {
			t.Fatalf("heartbeat %d at %v, want %v", i, p.Time, want)
		}
		if !pcap.IsAppData(&p) {
			t.Fatalf("heartbeat %d is not application data", i)
		}
	}
}

func TestEchoReconnectChangesAddr(t *testing.T) {
	e := NewEcho(rng.New(3))
	before := e.AVSAddr()
	packets := e.Reconnect(t0, false)
	if e.AVSAddr() == before {
		t.Fatal("reconnect did not change the AVS address")
	}
	// Without DNS, no DNS packets appear.
	for _, p := range packets {
		if _, ok := pcap.IsDNSQuery(&p); ok {
			t.Fatal("reconnect(withDNS=false) emitted a DNS query")
		}
	}
	// The new connection still carries the signature.
	var lens []int
	for _, p := range packets {
		if pcap.IsAppData(&p) {
			lens = append(lens, p.Len)
		}
	}
	for i, want := range AVSConnectSignature {
		if lens[i] != want {
			t.Fatalf("signature[%d] = %d, want %d", i, lens[i], want)
		}
	}
}

func TestEchoInvocationStructure(t *testing.T) {
	e := NewEcho(rng.New(4))
	e.AnomalyRate = 0
	inv := e.Invocation(t0, 3)
	if got := len(inv.Spikes); got != 4 {
		t.Fatalf("spikes = %d, want 1 command + 3 responses", got)
	}
	if inv.Spikes[0].Phase != PhaseCommand {
		t.Fatal("first spike is not the command phase")
	}
	for _, s := range inv.Spikes[1:] {
		if s.Phase != PhaseResponse {
			t.Fatal("later spike is not a response phase")
		}
	}
}

// TestEchoSpikesSeparatedByIdleGaps checks the generator's spikes
// against the recognizer's one-second rule: every gap inside a
// labelled spike is shorter than the idle gap, and every gap between
// two spikes is at least as long.
func TestEchoSpikesSeparatedByIdleGaps(t *testing.T) {
	e := NewEcho(rng.New(5))
	e.AnomalyRate = 0
	inv := e.Invocation(t0, 2)
	for i, s := range inv.Spikes {
		for j := 1; j < len(s.Packets); j++ {
			if gap := s.Packets[j].Time.Sub(s.Packets[j-1].Time); gap >= pcap.DefaultIdleGap {
				t.Fatalf("spike %d: %v gap before packet %d", i, gap, j)
			}
		}
		if i == 0 {
			continue
		}
		prev := inv.Spikes[i-1].Packets
		if gap := s.Packets[0].Time.Sub(prev[len(prev)-1].Time); gap < pcap.DefaultIdleGap {
			t.Fatalf("spikes %d and %d are only %v apart", i-1, i, gap)
		}
	}
}

func TestEchoCommandPhaseMarkers(t *testing.T) {
	e := NewEcho(rng.New(6))
	e.AnomalyRate = 0
	markerCount, fallbackCount := 0, 0
	for i := 0; i < 400; i++ {
		inv := e.Invocation(t0.Add(time.Duration(i)*time.Minute), 1)
		head := lengths(inv.CommandSpike().Packets)
		if len(head) > 5 {
			head = head[:5]
		}
		hasMarker := containsWithin(head, P138, 5) || containsWithin(head, P75, 5)
		if hasMarker {
			markerCount++
			continue
		}
		if matchesFallback(head) {
			fallbackCount++
			continue
		}
		t.Fatalf("invocation %d: head %v has neither marker nor fallback pattern", i, head)
	}
	if markerCount == 0 || fallbackCount == 0 {
		t.Fatalf("marker=%d fallback=%d: both cases should occur", markerCount, fallbackCount)
	}
	if frac := float64(markerCount) / 400; frac < 0.8 || frac > 0.97 {
		t.Fatalf("marker fraction = %v, want ~0.9", frac)
	}
}

func matchesFallback(head []int) bool {
	if len(head) < 5 {
		return false
	}
	if head[0] < FirstPacketMin || head[0] > FirstPacketMax {
		return false
	}
	for _, pat := range CommandFallbackPatterns {
		ok := true
		for i := 1; i < 5; i++ {
			if head[i] != pat[i] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestEchoResponseMarkersWithinFirstSeven(t *testing.T) {
	e := NewEcho(rng.New(7))
	e.AnomalyRate = 0
	for i := 0; i < 300; i++ {
		inv := e.Invocation(t0.Add(time.Duration(i)*time.Minute), 1)
		for _, s := range inv.Spikes {
			if s.Phase != PhaseResponse {
				continue
			}
			lens := lengths(s.Packets)
			if !containsAdjacent(lens, P77, P33, 7) {
				t.Fatalf("response spike lacks adjacent p-77/p-33 in first 7: %v", lens)
			}
			// Responses must not look like commands.
			if containsWithin(lens, P138, 5) || containsWithin(lens, P75, 5) {
				t.Fatalf("response spike carries a command marker: %v", lens)
			}
			if matchesFallback(lens[:5]) {
				t.Fatalf("response spike matches a command fallback pattern: %v", lens)
			}
		}
	}
}

func TestEchoAnomalousInvocationsLackPatterns(t *testing.T) {
	e := NewEcho(rng.New(8))
	e.AnomalyRate = 1.0
	inv := e.Invocation(t0, 1)
	head := lengths(inv.CommandSpike().Packets)[:5]
	if containsWithin(head, P138, 5) || containsWithin(head, P75, 5) || matchesFallback(head) {
		t.Fatalf("anomalous head %v still matches a pattern", head)
	}
}

func TestEchoInvocationAllSorted(t *testing.T) {
	e := NewEcho(rng.New(9))
	all := e.InvocationAuto(t0).All()
	for i := 1; i < len(all); i++ {
		if all[i].Time.Before(all[i-1].Time) {
			t.Fatal("All() not time-ordered")
		}
	}
}

func TestGHMInvocationOneSpike(t *testing.T) {
	g := NewGHM(rng.New(10))
	inv := g.Invocation(t0)
	if len(inv.Spikes) != 1 || inv.Spikes[0].Phase != PhaseCommand {
		t.Fatalf("GHM spikes = %+v, want exactly one command spike", inv.Spikes)
	}
}

func TestGHMUsesBothTransports(t *testing.T) {
	g := NewGHM(rng.New(11))
	var sawTCP, sawUDP bool
	for i := 0; i < 100; i++ {
		inv := g.Invocation(t0.Add(time.Duration(i) * time.Minute))
		switch inv.Spikes[0].Packets[0].Proto {
		case pcap.TCP:
			sawTCP = true
		case pcap.UDP:
			sawUDP = true
		}
	}
	if !sawTCP || !sawUDP {
		t.Fatalf("transports: TCP=%v UDP=%v, want both", sawTCP, sawUDP)
	}
}

func TestGHMSometimesSkipsDNS(t *testing.T) {
	g := NewGHM(rng.New(12))
	withDNS, withoutDNS := 0, 0
	for i := 0; i < 100; i++ {
		inv := g.Invocation(t0.Add(time.Duration(i) * time.Minute))
		hasDNS := false
		for _, p := range inv.Setup {
			if _, ok := pcap.IsDNSQuery(&p); ok {
				hasDNS = true
			}
		}
		if hasDNS {
			withDNS++
		} else {
			withoutDNS++
		}
	}
	if withDNS == 0 || withoutDNS == 0 {
		t.Fatalf("DNS present=%d absent=%d, want both cases", withDNS, withoutDNS)
	}
}

func TestGHMCommandPacketsShareOneFlow(t *testing.T) {
	g := NewGHM(rng.New(13))
	inv := g.Invocation(t0)
	key := inv.Spikes[0].Packets[0].Flow()
	for _, p := range inv.Spikes[0].Packets {
		if p.Flow() != key {
			t.Fatalf("command packets span flows: %+v vs %+v", p.Flow(), key)
		}
	}
}

// TestPortCountersWrapToStart drives each generator's source-port
// counter to 65,535: the next port handed out is the counter's start
// port plus one, the first port the generator ever uses, so a packet
// never carries a port the counter did not hand out.
func TestPortCountersWrapToStart(t *testing.T) {
	counter := uint16(math.MaxUint16 - 1)
	for _, want := range []uint16{math.MaxUint16, 40001, 40002} {
		if got := nextPort(&counter, echoPortBase); got != want {
			t.Fatalf("nextPort = %d, want %d", got, want)
		}
	}

	e := NewEcho(rng.New(1))
	e.port = math.MaxUint16
	re := e.Reconnect(t0, true)
	if e.avsPort != echoPortBase+1 {
		t.Errorf("Echo AVS port after wrap = %d, want %d", e.avsPort, echoPortBase+1)
	}
	if q := re[0]; q.DstPort != pcap.DNSPort || q.SrcPort != echoPortBase+2 {
		t.Errorf("Echo DNS query %d>%d, want source port %d", q.SrcPort, q.DstPort, echoPortBase+2)
	}

	g := NewGHM(rng.New(2))
	g.port = math.MaxUint16
	if p := g.Invocation(t0).CommandSpike().Packets[0]; p.SrcPort != ghmPortBase+1 {
		t.Errorf("GHM command port after wrap = %d, want %d", p.SrcPort, ghmPortBase+1)
	}

	s := NewBackgroundStream(rng.New(3), t0, time.Hour)
	s.port = math.MaxUint16
	first := true
	s.EmitBefore(t0.Add(time.Hour), func(p *pcap.Packet) {
		if !first {
			return
		}
		first = false
		if p.SrcPort != backgroundPortBase+1 && p.DstPort != backgroundPortBase+1 {
			t.Errorf("chatter's first packet %d>%d after wrap, want host port %d", p.SrcPort, p.DstPort, backgroundPortBase+1)
		}
	})
}

// lengths extracts the payload lengths of the packets, in order.
func lengths(packets []pcap.Packet) []int {
	out := make([]int, len(packets))
	for i, p := range packets {
		out[i] = p.Len
	}
	return out
}

// containsAdjacent reports whether lengths contains a followed
// immediately by b within the first limit entries.
func containsAdjacent(lengths []int, a, b, limit int) bool {
	if limit > len(lengths) {
		limit = len(lengths)
	}
	for i := 0; i+1 < limit; i++ {
		if lengths[i] == a && lengths[i+1] == b {
			return true
		}
	}
	return false
}

// containsWithin reports whether v appears within the first limit
// entries of lengths.
func containsWithin(lengths []int, v, limit int) bool {
	if limit > len(lengths) {
		limit = len(lengths)
	}
	for _, l := range lengths[:limit] {
		if l == v {
			return true
		}
	}
	return false
}

// TestMustRecordPastTheTable asks for a record longer than the intern
// table holds: it must still be one well-formed, zero-bodied record of
// exactly the asked wire length.
func TestMustRecordPastTheTable(t *testing.T) {
	const wireLen = 4096
	b := mustRecord(pcap.RecordApplicationData, wireLen)
	if len(b) != wireLen {
		t.Fatalf("wire length %d, want %d", len(b), wireLen)
	}
	records, err := pcap.ParseRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("%d records, want 1", len(records))
	}
	r := records[0]
	if r.Type != pcap.RecordApplicationData || r.Version != pcap.TLS12Version {
		t.Fatalf("record type %d version %#x, want application data, TLS 1.2", r.Type, r.Version)
	}
	if len(r.Payload) != wireLen-recordHeaderLen {
		t.Fatalf("body %d bytes, want %d", len(r.Payload), wireLen-recordHeaderLen)
	}
	for i, c := range r.Payload {
		if c != 0 {
			t.Fatalf("body byte %d = %#x, want 0", i, c)
		}
	}
}
