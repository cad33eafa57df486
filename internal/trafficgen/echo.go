package trafficgen

import (
	"net/netip"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

// Echo Dot phase markers (§IV-B1).
const (
	// Command-phase marker packet lengths.
	P138 = 138
	P75  = 75
	// Response-phase marker packet lengths (appear adjacently).
	P77 = 77
	P33 = 33
)

// CommandFallbackPatterns are the three fixed command-phase patterns
// observed when neither p-138 nor p-75 appears in the first five
// packets. The first entry is a placeholder for a length in
// [250, 650].
var CommandFallbackPatterns = [][]int{
	{0, 131, 277, 131, 113},
	{0, 131, 113, 113, 113},
	{0, 131, 121, 277, 131},
}

// FirstPacketMin/Max bound the first packet of a fallback
// command-phase pattern; FirstPacketCommon is its most common value.
const (
	FirstPacketMin    = 250
	FirstPacketMax    = 650
	FirstPacketCommon = 277
)

// Echo generates Amazon Echo Dot traffic.
type Echo struct {
	// AnomalyRate is the probability that a command-phase spike
	// carries none of the known patterns (the paper's 2-in-134
	// recognition misses). Defaults to 0.015.
	AnomalyRate float64
	// MarkerRate is the probability that a command phase carries a
	// p-138/p-75 marker rather than a fallback pattern.
	MarkerRate float64

	src       *rng.Source
	signature []int // current AVS connect signature
	avsAddr   netip.Addr
	avsIP     string // avsAddr.String(), cached per reconnect
	avsPort   int    // speaker source port of the live AVS connection
	nextPort  int
	nextIP    int
}

// NewEcho returns an Echo Dot traffic generator drawing from src.
func NewEcho(src *rng.Source) *Echo {
	e := &Echo{
		AnomalyRate: 0.015,
		MarkerRate:  0.9,
		src:         src,
		signature:   append([]int(nil), AVSConnectSignature...),
		nextPort:    40000,
		nextIP:      1,
	}
	e.avsAddr = e.newAVSAddr()
	e.avsIP = e.avsAddr.String()
	e.avsPort = e.newPort()
	return e
}

// AVSAddr returns the current AVS server address.
func (e *Echo) AVSAddr() netip.Addr { return e.avsAddr }

// ConnectSignature returns the signature the speaker currently emits
// when establishing AVS connections.
func (e *Echo) ConnectSignature() []int {
	return append([]int(nil), e.signature...)
}

// SetConnectSignature replaces the AVS connect signature — modelling a
// firmware update that changes the packet-level fingerprint (the
// paper's §VII "potential changes of traffic signature").
func (e *Echo) SetConnectSignature(signature []int) {
	e.signature = append([]int(nil), signature...)
}

func (e *Echo) newPort() int {
	e.nextPort++
	return e.nextPort
}

func (e *Echo) newAVSAddr() netip.Addr {
	addr := netip.AddrFrom4([4]byte{52, 94, 233, byte(e.nextIP)})
	e.nextIP++
	if e.nextIP > 254 {
		e.nextIP = 1
	}
	return addr
}

// connectPackets emits a TLS connection establishment from the given
// source port to addr: a ClientHello followed by the signature's
// Application Data lengths.
func (e *Echo) connectPackets(t time.Time, port int, addr netip.Addr, signature []int) ([]pcap.Packet, time.Time) {
	dstIP := addr.String()
	out := make([]pcap.Packet, 0, 1+len(signature))
	out = append(out, handshakePacket(t, EchoIP, port, dstIP, TLSPort, 180+e.src.IntN(80)))
	t = t.Add(intraSpikeGap(e.src))
	for _, l := range signature {
		out = append(out, appDataPacket(t, EchoIP, port, dstIP, TLSPort, l))
		t = t.Add(intraSpikeGap(e.src))
	}
	return out, t
}

// Boot returns the speaker's start-up traffic at time t: DNS
// exchanges and connection establishments for the AVS server and the
// six other Amazon endpoints.
func (e *Echo) Boot(t time.Time) ([]pcap.Packet, error) {
	var out []pcap.Packet

	dns := dnsExchange(t, EchoIP, e.newPort(), avsQuestion, e.avsAddr, e.src)
	out = append(out, dns[:]...)
	conn, next := e.connectPackets(dns[1].Time.Add(intraSpikeGap(e.src)), e.avsPort, e.avsAddr, e.signature)
	out = append(out, conn...)
	t = next

	for _, srv := range OtherAmazonServers {
		q, err := pcap.NewDNSQuestion(srv.Domain)
		if err != nil {
			return nil, err
		}
		a := 20 + e.src.IntN(60)
		b := 1 + e.src.IntN(250)
		addr := netip.AddrFrom4([4]byte{54, 239, byte(a), byte(b)})
		dns := dnsExchange(t, EchoIP, e.newPort(), q, addr, e.src)
		out = append(out, dns[:]...)
		conn, next := e.connectPackets(dns[1].Time.Add(intraSpikeGap(e.src)), e.newPort(), addr, srv.Signature)
		out = append(out, conn...)
		t = next.Add(time.Duration(e.src.Uniform(200, 800)) * time.Millisecond)
	}
	return out, nil
}

// Reconnect simulates the AVS connection moving to a new server IP
// (§IV-B1's reconnection problem). When withDNS is false the speaker
// reuses a cached resolution and no DNS exchange appears on the wire —
// the case that defeats DNS-only tracking.
func (e *Echo) Reconnect(t time.Time, withDNS bool) []pcap.Packet {
	e.avsAddr = e.newAVSAddr()
	e.avsIP = e.avsAddr.String()
	e.avsPort = e.newPort()
	var out []pcap.Packet
	if withDNS {
		dns := dnsExchange(t, EchoIP, e.newPort(), avsQuestion, e.avsAddr, e.src)
		out = append(out, dns[:]...)
		t = dns[1].Time.Add(intraSpikeGap(e.src))
	}
	conn, _ := e.connectPackets(t, e.avsPort, e.avsAddr, e.signature)
	return append(out, conn...)
}

// Heartbeats returns the keep-alive packets in [t, t+dur): one
// 41-byte packet every 30 seconds on the AVS connection.
func (e *Echo) Heartbeats(t time.Time, dur time.Duration) []pcap.Packet {
	var out []pcap.Packet
	for off := HeartbeatInterval; off <= dur; off += HeartbeatInterval {
		out = append(out, appDataPacket(t.Add(off), EchoIP, e.avsPort, e.avsIP, TLSPort, HeartbeatLen))
	}
	return out
}

// Invocation generates one voice-command invocation starting at t,
// with the given number of response-phase spikes (Fig. 3's example
// has three). The command phase is anomalous (carrying none of the
// known patterns) with probability AnomalyRate.
func (e *Echo) Invocation(t time.Time, responseSpikes int) Invocation {
	inv := Invocation{Speaker: "echo", Start: t}

	cmd, end := e.commandSpike(t)
	inv.Spikes = append(inv.Spikes, LabeledSpike{Phase: PhaseCommand, Packets: cmd})

	// "The end of the first phase is indicated by no traffic for
	// several seconds."
	next := end.Add(time.Duration(e.src.Uniform(2000, 4000)) * time.Millisecond)
	for i := 0; i < responseSpikes; i++ {
		resp, respEnd := e.responseSpike(next)
		inv.Spikes = append(inv.Spikes, LabeledSpike{Phase: PhaseResponse, Packets: resp})
		next = respEnd.Add(time.Duration(e.src.Uniform(1500, 3500)) * time.Millisecond)
	}
	return inv
}

// InvocationAuto generates an invocation with 1-3 response spikes.
func (e *Echo) InvocationAuto(t time.Time) Invocation {
	return e.Invocation(t, 1+e.src.IntN(3))
}

// smallCommandLens are plausible non-marker small-packet lengths seen
// in the command phase. None of them equals a phase marker, and the
// set contains no 33, so p-77/p-33 adjacency cannot occur by chance.
var smallCommandLens = []int{73, 90, 113, 121, 131, 146, 162, 188, 205}

// responseLens are plausible non-marker lengths for response spikes.
// They avoid p-138, p-75, and 131 (so no command fallback pattern can
// appear), and contain no adjacent-marker values.
var responseLens = []int{46, 58, 90, 101, 162, 210, 350, 520, 700, 850}

// commandSpike builds the first-phase packet burst: the activation
// spike, small signalling packets carrying the phase markers, and the
// voice-audio upload.
func (e *Echo) commandSpike(t time.Time) ([]pcap.Packet, time.Time) {
	lengths := e.commandHead()

	// Trailing signalling packets.
	for i, n := 0, 2+e.src.IntN(4); i < n; i++ {
		lengths = append(lengths, rng.Pick(e.src, smallCommandLens))
	}
	// Voice upload burst (spike ② in Fig. 3): the recorded command
	// streaming to the cloud.
	for i, n := 0, 4+e.src.IntN(9); i < n; i++ {
		lengths = append(lengths, 900+e.src.IntN(560))
	}
	return e.emitSpike(t, lengths)
}

// commandHead builds the first five lengths of a command-phase spike.
func (e *Echo) commandHead() []int {
	if e.src.Bool(e.AnomalyRate) {
		// Anomalous invocation: no marker, no fallback pattern. The
		// first length stays outside [250, 650] so no fallback
		// pattern can match.
		head := make([]int, 5)
		for i := range head {
			head[i] = rng.Pick(e.src, []int{90, 113, 162, 205, 146})
		}
		return head
	}
	if e.src.Bool(e.MarkerRate) {
		head := make([]int, 5)
		head[0] = e.firstPacketLen()
		for i := 1; i < 5; i++ {
			head[i] = rng.Pick(e.src, smallCommandLens)
		}
		marker := P138
		if e.src.Bool(0.45) {
			marker = P75
		}
		head[e.src.IntN(5)] = marker
		return head
	}
	// Fallback: one of the three fixed patterns.
	pattern := CommandFallbackPatterns[e.src.IntN(len(CommandFallbackPatterns))]
	head := append([]int(nil), pattern...)
	head[0] = e.firstPacketLen()
	return head
}

// firstPacketLen draws the activation packet length: most commonly
// 277, otherwise uniform in [250, 650].
func (e *Echo) firstPacketLen() int {
	if e.src.Bool(0.5) {
		return FirstPacketCommon
	}
	return FirstPacketMin + e.src.IntN(FirstPacketMax-FirstPacketMin+1)
}

// responseSpike builds a second-phase burst with the p-77/p-33
// adjacent markers within the first seven packets.
func (e *Echo) responseSpike(t time.Time) ([]pcap.Packet, time.Time) {
	n := 8 + e.src.IntN(5)
	lengths := make([]int, n)
	for i := range lengths {
		lengths[i] = rng.Pick(e.src, responseLens)
	}
	// Markers usually land in the first five packets, occasionally as
	// the 6th and 7th.
	idx := e.src.IntN(4)
	if e.src.Bool(0.1) {
		idx = 5
	}
	lengths[idx] = P77
	lengths[idx+1] = P33
	return e.emitSpike(t, lengths)
}

// emitSpike turns lengths into AVS-bound packets with sub-second
// spacing, returning the packets and the time of the last one.
func (e *Echo) emitSpike(t time.Time, lengths []int) ([]pcap.Packet, time.Time) {
	out := make([]pcap.Packet, 0, len(lengths))
	for _, l := range lengths {
		out = append(out, appDataPacket(t, EchoIP, e.avsPort, e.avsIP, TLSPort, l))
		t = t.Add(intraSpikeGap(e.src))
	}
	return out, out[len(out)-1].Time
}
