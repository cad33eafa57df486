package pcap_test

import (
	"slices"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

// dnsSeeds returns the DNS payloads of an hour of streamed background
// chatter and of an Echo's boot and DNS-backed reconnect.
func dnsSeeds(t testing.TB) [][]byte {
	t0 := time.Date(2023, 3, 6, 6, 0, 0, 0, time.UTC)
	var seeds [][]byte
	// The stream reuses its DNS payload buffer burst to burst: keep
	// copies.
	keep := func(p *pcap.Packet) {
		if p.Proto == pcap.UDP && (p.SrcPort == pcap.DNSPort || p.DstPort == pcap.DNSPort) {
			seeds = append(seeds, slices.Clone(p.Payload))
		}
	}
	trafficgen.NewBackgroundStream(rng.New(1), t0, 10*time.Minute).Drain(keep)
	e := trafficgen.NewEcho(rng.New(2))
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	reconnect := e.Reconnect(t0.Add(time.Hour), true)
	for _, p := range append(boot, reconnect...) {
		keep(&p)
	}
	return seeds
}

// FuzzParseDNS feeds arbitrary bytes to the DNS parser, which reads
// replies any host on the LAN can send the speaker. It must never
// panic, and whatever it accepts must survive encode→parse with ID,
// name and address intact.
func FuzzParseDNS(f *testing.F) {
	for _, seed := range dnsSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := pcap.ParseDNS(b)
		if err != nil {
			return
		}
		q, err := pcap.NewDNSQuestion(msg.Name)
		if err != nil {
			t.Fatalf("parsed name %q does not re-encode: %v", msg.Name, err)
		}
		wire := q.Query(msg.ID)
		if msg.Response {
			wire = q.Response(msg.ID, msg.Addr.As4())
		}
		back, err := pcap.ParseDNS(wire)
		if err != nil {
			t.Fatalf("re-encoded %+v does not parse: %v", msg, err)
		}
		if back != msg {
			t.Fatalf("round trip changed the message: %+v -> %+v", msg, back)
		}
	})
}

func TestDNSSeedsCoverBothDirections(t *testing.T) {
	var queries, responses int
	for _, b := range dnsSeeds(t) {
		msg, err := pcap.ParseDNS(b)
		if err != nil {
			t.Fatalf("generator DNS payload rejected: %v", err)
		}
		if msg.Response {
			responses++
		} else {
			queries++
		}
	}
	if queries == 0 || responses == 0 {
		t.Fatalf("seeds hold %d queries and %d responses, want both", queries, responses)
	}
}
