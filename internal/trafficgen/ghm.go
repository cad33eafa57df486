package trafficgen

import (
	"net/netip"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

// GHM generates Google Home Mini traffic. Unlike the Echo Dot, the
// GHM's cloud connection is on-demand: a TLS (or QUIC) session is
// established only when a command arrives, there is no heartbeat, and
// responses produce no speaker-originated spikes — so any spike after
// an idle period is a voice command (§IV-B1).
type GHM struct {
	// QUICProb is the probability an invocation uses QUIC over UDP
	// rather than TCP (the GHM switches by network conditions).
	QUICProb float64
	// CachedDNSProb is the probability the speaker already holds a
	// cached resolution and performs no DNS exchange.
	CachedDNSProb float64

	src    *rng.Source
	addr   pcap.IPv4
	port   uint16 // source-port counter (see nextPort)
	nextIP int
}

// ghmPortBase is where the GHM's source-port counter starts.
const ghmPortBase = 50000

// NewGHM returns a Google Home Mini traffic generator drawing from
// src.
func NewGHM(src *rng.Source) *GHM {
	g := &GHM{
		QUICProb:      0.5,
		CachedDNSProb: 0.5,
		src:           src,
		port:          ghmPortBase,
		nextIP:        1,
	}
	g.addr = g.newAddr()
	return g
}

// Addr returns the current Google cloud address.
func (g *GHM) Addr() netip.Addr { return netip.AddrFrom4(g.addr) }

func (g *GHM) newPort() uint16 { return nextPort(&g.port, ghmPortBase) }

func (g *GHM) newAddr() pcap.IPv4 {
	addr := pcap.IPv4{142, 250, 65, byte(g.nextIP)}
	g.nextIP++
	if g.nextIP > 254 {
		g.nextIP = 1
	}
	return addr
}

// maxGHMPackets bounds an invocation: a DNS exchange, the handshake
// or QUIC initial, and up to 15 command packets.
const maxGHMPackets = 2 + 1 + 15

// Invocation generates one on-demand voice-command invocation
// starting at t: an optional DNS exchange, the session handshake, and
// the command spike. The transport is QUIC/UDP with probability
// QUICProb, else TCP.
func (g *GHM) Invocation(t time.Time) Invocation {
	var inv Invocation
	g.FillInvocation(&inv, t)
	return inv
}

// FillInvocation is Invocation into a caller-owned Invocation, which
// it empties first and whose buffers (the DNS payloads included) it
// reuses: after warm-up an invocation allocates nothing.
func (g *GHM) FillInvocation(inv *Invocation, t time.Time) {
	inv.reset("ghm", t, maxGHMPackets, 1)
	port := g.newPort()
	quic := g.src.Bool(g.QUICProb)

	if !g.src.Bool(g.CachedDNSProb) {
		// Fresh resolution; the cloud address may rotate.
		if g.src.Bool(0.3) {
			g.addr = g.newAddr()
		}
		var dns [2]pcap.Packet
		dns, inv.dns = dnsExchange(inv.dns, t, GHMAddr, g.newPort(), googleQuestion, g.addr, g.src)
		inv.Packets = append(inv.Packets, dns[:]...)
		t = dns[1].Time.Add(intraSpikeGap(g.src))
	}

	if quic {
		// QUIC initial packets ride in the same UDP flow as the
		// command data.
		inv.Packets = append(inv.Packets, g.quicPacket(t, port, 1200+g.src.IntN(52)))
		t = t.Add(intraSpikeGap(g.src))
	} else {
		inv.Packets = append(inv.Packets, handshakePacket(t, GHMAddr, port, g.addr, TLSPort, 230+g.src.IntN(80)))
		t = t.Add(intraSpikeGap(g.src))
	}
	setup := len(inv.Packets)

	n := 6 + g.src.IntN(10)
	for i := 0; i < n; i++ {
		length := 300 + g.src.IntN(1050)
		if quic {
			inv.Packets = append(inv.Packets, g.quicPacket(t, port, length))
		} else {
			inv.Packets = append(inv.Packets, appDataPacket(t, GHMAddr, port, g.addr, TLSPort, length))
		}
		t = t.Add(intraSpikeGap(g.src))
	}
	inv.endSpike(PhaseCommand, setup)
	inv.seal(setup)
}

// quicZeros backs every QUIC datagram's zero-filled payload: a
// length-n payload is quicZeros[:n:n], shared and never mutated. It
// covers the longest datagram Invocation draws (1349 bytes).
var quicZeros [1350]byte

// quicPacket builds a QUIC/UDP datagram of the given payload length.
func (g *GHM) quicPacket(t time.Time, port uint16, length int) pcap.Packet {
	return pcap.Packet{
		Time:  t,
		SrcIP: GHMAddr, SrcPort: port,
		DstIP: g.addr, DstPort: QUICPort,
		Proto:   pcap.UDP,
		Len:     length,
		Payload: quicZeros[:length:length],
	}
}
