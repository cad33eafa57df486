package trafficgen

import (
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
	avs := e.AVSAddr().String()
	var lens []int
	for _, p := range packets {
		if p.DstIP == avs && pcap.IsAppData(p) {
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
		if msg, ok := pcap.IsDNSResponse(p); ok && msg.Name == AVSDomain {
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
		if !pcap.IsAppData(p) {
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
		if _, ok := pcap.IsDNSQuery(p); ok {
			t.Fatal("reconnect(withDNS=false) emitted a DNS query")
		}
	}
	// The new connection still carries the signature.
	var lens []int
	for _, p := range packets {
		if pcap.IsAppData(p) {
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

func TestEchoSpikesSeparatedByIdleGaps(t *testing.T) {
	e := NewEcho(rng.New(5))
	e.AnomalyRate = 0
	inv := e.Invocation(t0, 2)
	all := inv.All()
	spikes := pcap.Spikes(all, pcap.DefaultIdleGap)
	if len(spikes) != len(inv.Spikes) {
		t.Fatalf("segmentation found %d spikes, generator made %d", len(spikes), len(inv.Spikes))
	}
}

func TestEchoCommandPhaseMarkers(t *testing.T) {
	e := NewEcho(rng.New(6))
	e.AnomalyRate = 0
	markerCount, fallbackCount := 0, 0
	for i := 0; i < 400; i++ {
		inv := e.Invocation(t0.Add(time.Duration(i)*time.Minute), 1)
		head := inv.CommandSpike().Lengths()
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
			lens := pcap.Lengths(s.Packets)
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
	head := inv.CommandSpike().Lengths()[:5]
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
			if _, ok := pcap.IsDNSQuery(p); ok {
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
	key := inv.Spikes[0].Packets[0].FlowKey()
	for _, p := range inv.Spikes[0].Packets {
		if p.FlowKey() != key {
			t.Fatalf("command packets span flows: %s vs %s", p.FlowKey(), key)
		}
	}
}

func TestLabeledSpikeLengthsHelper(t *testing.T) {
	e := NewEcho(rng.New(14))
	inv := e.Invocation(t0, 0)
	s := inv.CommandSpike()
	if len(s.Lengths()) != len(s.Packets) {
		t.Fatal("Lengths() size mismatch")
	}
}
