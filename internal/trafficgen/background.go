package trafficgen

import (
	"fmt"
	"slices"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

// backgroundHosts are the LAN's other hosts.
var backgroundHosts = []pcap.IPv4{
	{192, 168, 1, 50}, // laptop
	{192, 168, 1, 51}, // smart TV
	{192, 168, 1, 52}, // tablet
}

// backgroundPortBase is where the chatter's source-port counter starts.
const backgroundPortBase = 52000

// backgroundLens are the other hosts' application-data lengths. They
// deliberately include marker-valued lengths — other hosts may emit
// any length; only the speaker's flow may be interpreted.
var backgroundLens = []int{138, 75, 77, 33, 277, 480, 1100, 1400}

// cdnQuestions are the pre-encoded lookups of the unrelated
// cdnN.example.com domains the other hosts resolve.
var cdnQuestions = func() (qs [50]pcap.DNSQuestion) {
	for i := range qs {
		qs[i] = mustQuestion(fmt.Sprintf("cdn%d.example.com", i))
	}
	return qs
}()

// maxBurstPackets bounds one burst: a DNS exchange, a handshake and up
// to ten data packets.
const maxBurstPackets = 2 + 1 + 10

// burstDNSBytes holds a burst's DNS exchange: a cdnN.example.com query
// (at most 35 bytes) and its response (51).
const burstDNSBytes = 96

// BackgroundStream synthesises unrelated home-network chatter over the
// window [start, start+dur): laptops browsing, a TV streaming, phones
// syncing. The guard captures everything on the LAN, so the
// recognizer must ignore all of it — it keys on the speaker's IP and
// the tracked cloud flow (§IV-B1: "The traffic flows originating from
// a smart speaker are complex and only some of them are related to
// voice commands", and other hosts' flows even more so).
//
// The stream generates one burst (an optional DNS lookup, a TLS
// handshake and a few data packets) at a time into a reused buffer, as
// the consumer asks for packets: a 16-hour day is ~30,000 packets, of
// which only the current burst is ever held. Packets come out in
// time order, by pointer into that buffer, and a DNS message's payload
// lives in a scratch buffer the next burst overwrites: an emitted
// packet and its payload are valid only during the emit call.
type BackgroundStream struct {
	src   *rng.Source
	at    time.Time // start of the next burst
	end   time.Time
	port  uint16
	burst []pcap.Packet // the current burst
	next  int           // first packet of burst not yet emitted
	dns   []byte        // the current burst's DNS payloads
}

// NewBackgroundStream returns the chatter for [start, start+dur),
// drawing from src.
func NewBackgroundStream(src *rng.Source, start time.Time, dur time.Duration) *BackgroundStream {
	return &BackgroundStream{
		src:   src,
		at:    start,
		end:   start.Add(dur),
		port:  backgroundPortBase,
		burst: make([]pcap.Packet, 0, maxBurstPackets),
		dns:   make([]byte, 0, burstDNSBytes),
	}
}

// EmitBefore passes every not yet emitted packet timestamped strictly
// before t to emit, in time order.
func (s *BackgroundStream) EmitBefore(t time.Time, emit func(*pcap.Packet)) {
	for s.next < len(s.burst) || s.fill() {
		p := &s.burst[s.next]
		if !p.Time.Before(t) {
			return
		}
		s.next++
		emit(p)
	}
}

// Drain passes every remaining packet to emit, in time order.
func (s *BackgroundStream) Drain(emit func(*pcap.Packet)) {
	for s.next < len(s.burst) || s.fill() {
		s.next++
		emit(&s.burst[s.next-1])
	}
}

// fill generates the next burst into the buffer, reporting false once
// the window holds no further burst. A burst starts inside the window
// but may run past its end.
func (s *BackgroundStream) fill() bool {
	if !s.at.Before(s.end) {
		return false
	}
	src := s.src
	s.burst, s.next, s.dns = s.burst[:0], 0, s.dns[:0]
	host := rng.Pick(src, backgroundHosts)
	port := nextPort(&s.port, backgroundPortBase)
	a := 1 + src.IntN(250)
	b := 1 + src.IntN(250)
	dst := pcap.IPv4{93, 184, byte(a), byte(b)}

	at := s.at
	// Occasional DNS lookup for an unrelated domain.
	if src.Bool(0.4) {
		var dns [2]pcap.Packet
		dns, s.dns = dnsExchange(s.dns, at, host, port, cdnQuestions[src.IntN(len(cdnQuestions))], dst, src)
		s.burst = append(s.burst, dns[:]...)
		at = dns[1].Time.Add(intraSpikeGap(src))
	}
	// A short TLS burst: handshake + a few data packets.
	s.burst = append(s.burst, handshakePacket(at, host, port, dst, TLSPort, 200+src.IntN(120)))
	at = at.Add(intraSpikeGap(src))
	for i, n := 0, 3+src.IntN(8); i < n; i++ {
		s.burst = append(s.burst, appDataPacket(at, host, port, dst, TLSPort, rng.Pick(src, backgroundLens)))
		at = at.Add(intraSpikeGap(src))
	}
	s.at = at.Add(time.Duration(src.Uniform(2, 30)) * time.Second)
	return true
}

// Background collects the whole of a BackgroundStream's window into
// one slice, for tests and offline captures. DNS payloads are copied
// out of the stream's scratch; record payloads are interned and
// immutable, so they are shared.
func Background(src *rng.Source, start time.Time, dur time.Duration) []pcap.Packet {
	var out []pcap.Packet
	NewBackgroundStream(src, start, dur).Drain(func(p *pcap.Packet) {
		q := *p
		if q.Proto == pcap.UDP {
			q.Payload = slices.Clone(q.Payload)
		}
		out = append(out, q)
	})
	return out
}
