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

	src      *rng.Source
	addr     netip.Addr
	ip       string // addr.String(), cached per address
	nextPort int
	nextIP   int
}

// NewGHM returns a Google Home Mini traffic generator drawing from
// src.
func NewGHM(src *rng.Source) *GHM {
	g := &GHM{
		QUICProb:      0.5,
		CachedDNSProb: 0.5,
		src:           src,
		nextPort:      50000,
		nextIP:        1,
	}
	g.setAddr(g.newAddr())
	return g
}

// Addr returns the current Google cloud address.
func (g *GHM) Addr() netip.Addr { return g.addr }

func (g *GHM) newPort() int {
	g.nextPort++
	return g.nextPort
}

func (g *GHM) newAddr() netip.Addr {
	addr := netip.AddrFrom4([4]byte{142, 250, 65, byte(g.nextIP)})
	g.nextIP++
	if g.nextIP > 254 {
		g.nextIP = 1
	}
	return addr
}

// setAddr moves the speaker to a new cloud address.
func (g *GHM) setAddr(addr netip.Addr) {
	g.addr = addr
	g.ip = addr.String()
}

// Invocation generates one on-demand voice-command invocation
// starting at t: an optional DNS exchange, the session handshake, and
// the command spike. The transport is QUIC/UDP with probability
// QUICProb, else TCP.
func (g *GHM) Invocation(t time.Time) Invocation {
	inv := Invocation{Speaker: "ghm", Start: t}
	port := g.newPort()
	quic := g.src.Bool(g.QUICProb)

	if !g.src.Bool(g.CachedDNSProb) {
		// Fresh resolution; the cloud address may rotate.
		if g.src.Bool(0.3) {
			g.setAddr(g.newAddr())
		}
		dns := dnsExchange(t, GHMIP, g.newPort(), googleQuestion, g.addr, g.src)
		inv.Setup = append(inv.Setup, dns[:]...)
		t = dns[1].Time.Add(intraSpikeGap(g.src))
	}

	if quic {
		// QUIC initial packets ride in the same UDP flow as the
		// command data.
		inv.Setup = append(inv.Setup, g.quicPacket(t, port, 1200+g.src.IntN(52)))
		t = t.Add(intraSpikeGap(g.src))
	} else {
		inv.Setup = append(inv.Setup, handshakePacket(t, GHMIP, port, g.ip, TLSPort, 230+g.src.IntN(80)))
		t = t.Add(intraSpikeGap(g.src))
	}

	n := 6 + g.src.IntN(10)
	packets := make([]pcap.Packet, 0, n)
	for i := 0; i < n; i++ {
		length := 300 + g.src.IntN(1050)
		if quic {
			packets = append(packets, g.quicPacket(t, port, length))
		} else {
			packets = append(packets, appDataPacket(t, GHMIP, port, g.ip, TLSPort, length))
		}
		t = t.Add(intraSpikeGap(g.src))
	}
	inv.Spikes = append(inv.Spikes, LabeledSpike{Phase: PhaseCommand, Packets: packets})
	return inv
}

// quicZeros backs every QUIC datagram's zero-filled payload: a
// length-n payload is quicZeros[:n:n], shared and never mutated. It
// covers the longest datagram Invocation draws (1349 bytes).
var quicZeros [1350]byte

// quicPacket builds a QUIC/UDP datagram of the given payload length.
func (g *GHM) quicPacket(t time.Time, port, length int) pcap.Packet {
	return pcap.Packet{
		Time:  t,
		SrcIP: GHMIP, SrcPort: port,
		DstIP: g.ip, DstPort: QUICPort,
		Proto:   pcap.UDP,
		Len:     length,
		Payload: quicZeros[:length:length],
	}
}
