// Package trafficgen synthesises the network traffic of the two smart
// speakers the paper evaluates. It reproduces the packet-level
// features §IV-B keys on:
//
//   - the Echo Dot's AVS connection-establishment signature
//     (63, 33, 653, 131, ... as Application Data lengths),
//   - 41-byte heartbeats every 30 seconds,
//   - two-phase voice-command traffic (command phase with p-138/p-75
//     markers or one of three fixed fallback patterns; response phase
//     with adjacent p-77/p-33 markers),
//   - occasional AVS reconnections to a new IP, with and without a
//     preceding DNS exchange,
//   - the Google Home Mini's on-demand connections over TCP or QUIC
//     with no response spikes.
//
// All packets carry real TLS-record or DNS payloads so the recognizer
// can parse the same unencrypted headers the paper's Wireshark-based
// analysis reads.
package trafficgen

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

// Network constants for the simulated home LAN.
const (
	EchoIP   = "192.168.1.200"
	GHMIP    = "192.168.1.201"
	RouterIP = "192.168.1.1"

	// AVSDomain is the Echo Dot's voice-service endpoint (§IV-B1).
	AVSDomain = "avs-alexa-4-na.amazon.com"
	// GoogleDomain is the Google Home Mini's endpoint.
	GoogleDomain = "www.google.com"

	// TLSPort is the cloud servers' TLS port.
	TLSPort = 443
	// QUICPort is the cloud servers' QUIC port.
	QUICPort = 443
)

// The LAN addresses above as packet addresses, parsed once.
var (
	EchoAddr   = pcap.MustParseIPv4(EchoIP)
	GHMAddr    = pcap.MustParseIPv4(GHMIP)
	RouterAddr = pcap.MustParseIPv4(RouterIP)
)

// nextPort advances a generator's source-port counter, which starts at
// base, and returns the new port. A counter at 65,535 wraps back to
// base, so the ports handed out stay in (base, 65535] and every port a
// packet carries is the one the recognizer's flow keys see.
func nextPort(counter *uint16, base uint16) uint16 {
	if *counter == math.MaxUint16 {
		*counter = base
	}
	*counter++
	return *counter
}

// HeartbeatInterval and HeartbeatLen describe the Echo Dot's
// keep-alive: a 41-byte packet every 30 seconds.
const (
	HeartbeatInterval = 30 * time.Second
	HeartbeatLen      = 41
)

// AVSConnectSignature is the packet-length sequence (bytes) of an
// Echo Dot establishing a connection with the AVS server, as reported
// in §IV-B1.
var AVSConnectSignature = []int{63, 33, 653, 131, 73, 131, 188, 73, 131, 73, 131, 73, 131, 77, 33, 33}

// OtherServer describes a non-AVS Amazon endpoint the Echo Dot also
// talks to; each has a distinct connect signature so signature
// matching can tell them apart (the paper compares against six).
type OtherServer struct {
	Domain    string
	Signature []int
}

// OtherAmazonServers are the six non-AVS endpoints used to validate
// signature distinctness.
var OtherAmazonServers = []OtherServer{
	{Domain: "device-metrics-us.amazon.com", Signature: []int{63, 33, 587, 131, 73, 90, 188}},
	{Domain: "dcape-na.amazon.com", Signature: []int{63, 33, 653, 117, 73, 131, 205}},
	{Domain: "api.amazon.com", Signature: []int{71, 33, 653, 131, 73, 131, 188, 73, 99}},
	{Domain: "softwareupdates.amazon.com", Signature: []int{63, 41, 512, 131, 73}},
	{Domain: "ntp-g7g.amazon.com", Signature: []int{48, 48, 48}},
	{Domain: "todo-ta-g7g.amazon.com", Signature: []int{63, 33, 653, 131, 88, 131, 188, 73, 131, 73, 140}},
}

// Phase labels a ground-truth spike phase.
type Phase int

// Spike phases (paper Fig. 3).
const (
	PhaseCommand  Phase = iota + 1 // first phase: the voice command
	PhaseResponse                  // second phase: the spoken response
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseCommand:
		return "command"
	case PhaseResponse:
		return "response"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// LabeledSpike is a generated spike with its ground-truth phase.
type LabeledSpike struct {
	Phase   Phase
	Packets []pcap.Packet
}

// Invocation is one full speaker invocation: the command-phase spike
// and zero or more response-phase spikes, plus any connection-setup
// packets (DNS, handshake) that preceded it.
//
// Packets holds the whole invocation in time order; Setup and each
// spike's Packets are capacity-capped sub-slices of it. A generator's
// FillInvocation refills an Invocation in place, reusing these slices
// and the DNS payload buffer, so everything an Invocation holds stays
// valid only until it is filled again.
type Invocation struct {
	Speaker string
	Start   time.Time
	Packets []pcap.Packet // every packet, in time order
	Setup   []pcap.Packet // DNS + handshake (GHM on-demand connections)
	Spikes  []LabeledSpike

	dns []byte // backs the DNS payloads in Setup
}

// All returns every packet of the invocation in time order. The slice
// is the invocation's own, capped so that appending to it copies.
func (inv Invocation) All() []pcap.Packet {
	return inv.Packets[:len(inv.Packets):len(inv.Packets)]
}

// reset empties inv for a new invocation of at most packets packets
// in spikes spikes, keeping its buffers and growing them to fit.
func (inv *Invocation) reset(speaker string, t time.Time, packets, spikes int) {
	inv.Speaker, inv.Start = speaker, t
	inv.Packets = slices.Grow(inv.Packets[:0], packets)
	inv.Spikes = slices.Grow(inv.Spikes[:0], spikes)
	inv.Setup, inv.dns = nil, inv.dns[:0]
}

// endSpike closes a spike whose packets run from index from to the
// end of Packets.
func (inv *Invocation) endSpike(phase Phase, from int) {
	inv.Spikes = append(inv.Spikes, LabeledSpike{Phase: phase, Packets: inv.Packets[from:]})
}

// seal points Setup (the first setup packets) and every spike at the
// finished Packets slice: appends may have moved it since a spike was
// closed, but each spike's length is still right.
func (inv *Invocation) seal(setup int) {
	if setup > 0 {
		inv.Setup = inv.Packets[:setup:setup]
	}
	off := setup
	for i := range inv.Spikes {
		end := off + len(inv.Spikes[i].Packets)
		inv.Spikes[i].Packets = inv.Packets[off:end:end]
		off = end
	}
}

// CommandSpike returns the invocation's command-phase spike.
func (inv Invocation) CommandSpike() LabeledSpike {
	for _, s := range inv.Spikes {
		if s.Phase == PhaseCommand {
			return s
		}
	}
	return LabeledSpike{}
}

// recordSmall and recordBig intern the zero-bodied TLS records the
// generators emit, keyed by record type and wire length. The
// generators emit at most a few thousand (type, length) pairs,
// millions of times over a simulated week; every emission of a pair is
// byte-identical, so one shared slice serves them all. Consumers
// (ParseRecords copies bodies; IsAppData reads headers in place) never
// mutate packet payloads.
//
// Every generator length fits the fixed table, so the common case is
// one atomic pointer load; the map is a fallback for out-of-range
// lengths from external callers (SetConnectSignature).
const recordCacheMax = 2048

// recordHeaderLen is the TLS record header: type, version, length.
const recordHeaderLen = 5

var (
	recordSmall [4][recordCacheMax]atomic.Pointer[[]byte] // [type - ChangeCipherSpec][wire length]
	recordBig   sync.Map                                  // recordKey -> []byte
)

type recordKey struct {
	typ     pcap.RecordType
	wireLen int
}

// mustRecord returns a TLS 1.2 record of the given type whose body is
// wireLen-5 zero bytes. The returned slice is shared and must not be
// mutated.
func mustRecord(typ pcap.RecordType, wireLen int) []byte {
	if wireLen >= recordCacheMax {
		key := recordKey{typ, wireLen}
		if b, ok := recordBig.Load(key); ok {
			return b.([]byte)
		}
		b, _ := recordBig.LoadOrStore(key, zeroRecord(typ, wireLen))
		return b.([]byte)
	}
	slot := &recordSmall[typ-pcap.RecordChangeCipherSpec][wireLen]
	if p := slot.Load(); p != nil {
		return *p
	}
	b := zeroRecord(typ, wireLen)
	slot.Store(&b)
	return b
}

// zeroRecord encodes a zero-bodied record of the given wire length.
func zeroRecord(typ pcap.RecordType, wireLen int) []byte {
	return pcap.EncodeRecord(pcap.Record{
		Type:    typ,
		Version: pcap.TLS12Version,
		Payload: make([]byte, wireLen-recordHeaderLen),
	})
}

// mustAppData returns an application-data payload of the given wire
// length, padding undersized lengths up to the minimum record size.
// Signature lengths in this package are all >= 5 bytes. The returned
// slice is shared and must not be mutated.
func mustAppData(wireLen int) []byte {
	if wireLen < recordHeaderLen {
		wireLen = recordHeaderLen
	}
	return mustRecord(pcap.RecordApplicationData, wireLen)
}

// appDataPacket builds a client-to-server application-data packet.
func appDataPacket(t time.Time, srcIP pcap.IPv4, srcPort uint16, dstIP pcap.IPv4, dstPort uint16, wireLen int) pcap.Packet {
	payload := mustAppData(wireLen)
	return pcap.Packet{
		Time:  t,
		SrcIP: srcIP, SrcPort: srcPort,
		DstIP: dstIP, DstPort: dstPort,
		Proto:   pcap.TCP,
		Len:     len(payload),
		Payload: payload,
	}
}

// handshakePacket builds a TLS handshake packet (ClientHello etc.).
func handshakePacket(t time.Time, srcIP pcap.IPv4, srcPort uint16, dstIP pcap.IPv4, dstPort uint16, payloadLen int) pcap.Packet {
	payload := mustRecord(pcap.RecordHandshake, recordHeaderLen+payloadLen)
	return pcap.Packet{
		Time:  t,
		SrcIP: srcIP, SrcPort: srcPort,
		DstIP: dstIP, DstPort: dstPort,
		Proto:   pcap.TCP,
		Len:     len(payload),
		Payload: payload,
	}
}

// mustQuestion pre-encodes the DNS question for one of the
// generators' fixed, well-formed domain names.
func mustQuestion(name string) pcap.DNSQuestion {
	q, err := pcap.NewDNSQuestion(name)
	if err != nil {
		panic(err) // unreachable: every generator domain is well-formed
	}
	return q
}

// The speakers' own cloud domains, encoded once.
var (
	avsQuestion    = mustQuestion(AVSDomain)
	googleQuestion = mustQuestion(GoogleDomain)
)

// dnsExchange builds a query/response pair for q resolving to addr,
// appending both payloads to buf and returning the extended buffer.
// The packets' payloads alias buf (or the array a growing append moved
// it to), so they stay valid only while the caller leaves buf's
// contents alone. The response arrives 10-40 ms after the query.
func dnsExchange(buf []byte, t time.Time, clientIP pcap.IPv4, clientPort uint16, q pcap.DNSQuestion, addr pcap.IPv4, src *rng.Source) ([2]pcap.Packet, []byte) {
	id := uint16(src.IntN(1 << 16))
	start := len(buf)
	buf = q.AppendQuery(buf, id)
	mid := len(buf)
	buf = q.AppendResponse(buf, id, addr)
	query, resp := buf[start:mid:mid], buf[mid:len(buf):len(buf)]
	latency := time.Duration(src.Uniform(10, 40)) * time.Millisecond
	return [2]pcap.Packet{
		{
			Time:  t,
			SrcIP: clientIP, SrcPort: clientPort,
			DstIP: RouterAddr, DstPort: pcap.DNSPort,
			Proto: pcap.UDP, Len: len(query), Payload: query,
		},
		{
			Time:  t.Add(latency),
			SrcIP: RouterAddr, SrcPort: pcap.DNSPort,
			DstIP: clientIP, DstPort: clientPort,
			Proto: pcap.UDP, Len: len(resp), Payload: resp,
		},
	}, buf
}

// intraSpikeGap draws a sub-second inter-packet interval, keeping the
// spike together under the recognizer's one-second idle-gap rule.
func intraSpikeGap(src *rng.Source) time.Duration {
	return time.Duration(src.Uniform(10, 150)) * time.Millisecond
}
