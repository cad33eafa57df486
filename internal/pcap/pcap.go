// Package pcap provides the packet-capture model the Traffic
// Processing Module operates on: packet records with timestamps and
// payloads, flow grouping, a minimal TLS record codec (VoiceGuard
// reads the unencrypted TLS record header to find Application Data
// packets), a minimal DNS wire codec (VoiceGuard tracks DNS responses
// to learn cloud-server addresses), and the idle gap that separates
// traffic spikes.
package pcap

import (
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// DefaultIdleGap separates traffic spikes: within a spike,
// inter-packet intervals are below one second (paper §IV-B1); a
// longer silence ends the spike.
const DefaultIdleGap = time.Second

// IPv4 is an IPv4 address in network byte order. It is a comparable
// 4-byte value, so a packet carries its endpoints without pointers and
// a flow key hashes without hashing strings.
type IPv4 [4]byte

// String returns the address in dotted-decimal form, e.g.
// "192.168.1.200". It allocates; the conversion below also makes it an
// allocation source to vglint's hotalloc rule, so no per-packet hot
// path can reach it.
func (a IPv4) String() string {
	var buf [len("255.255.255.255")]byte
	return string(netip.AddrFrom4(a).AppendTo(buf[:0]))
}

// ParseIPv4 parses a dotted-decimal IPv4 address. It accepts exactly
// the strings IPv4.String produces (no leading zeros, no IPv6 forms),
// so every accepted address has one text form.
func ParseIPv4(s string) (IPv4, error) {
	addr, err := netip.ParseAddr(s)
	if err != nil || !addr.Is4() {
		return IPv4{}, fmt.Errorf("pcap: %q is not an IPv4 address", s)
	}
	return addr.As4(), nil
}

// MustParseIPv4 is ParseIPv4 for addresses fixed in the source; it
// panics on a malformed one.
func MustParseIPv4(s string) IPv4 {
	a, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Protocol is the transport protocol of a packet.
type Protocol uint8

// Transport protocols observed on the home network.
const (
	TCP Protocol = iota + 1
	UDP
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case TCP:
		return "TCP"
	case UDP:
		return "UDP"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Packet is one captured packet. Len is the transport payload length
// in bytes — the quantity the paper's packet-level signatures are
// defined over. Payload optionally carries the bytes themselves (TLS
// records or DNS messages) for header inspection.
//
// A packet is 72 bytes with two pointer words (the time's location and
// the payload). The packet stream is handed from the generators to the
// recognizer as *Packet: a callee may read the packet only during the
// call, and one that keeps it must copy *p.
//
// Payload is read-only. The traffic generators share one buffer among
// every packet with the same bytes (interned TLS records, zero-filled
// datagrams), so a consumer that needs to modify a payload must copy
// it first.
type Packet struct {
	Time    time.Time
	SrcIP   IPv4
	SrcPort uint16
	DstIP   IPv4
	DstPort uint16
	Proto   Protocol
	Len     int
	Payload []byte
}

// FlowKey identifies the packet's unidirectional flow as a printable
// string. Hot paths that key maps by flow should use Flow instead —
// FlowKey formats on every call.
func (p Packet) FlowKey() string {
	return fmt.Sprintf("%s:%d>%s:%d/%s", p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, p.Proto)
}

// FlowID identifies a unidirectional flow as a comparable value, so
// per-flow state can be keyed without formatting a string per packet.
type FlowID struct {
	SrcIP   IPv4
	SrcPort uint16
	DstIP   IPv4
	DstPort uint16
	Proto   Protocol
}

// Flow returns the packet's unidirectional flow identity.
func (p Packet) Flow() FlowID {
	return FlowID{SrcIP: p.SrcIP, SrcPort: p.SrcPort, DstIP: p.DstIP, DstPort: p.DstPort, Proto: p.Proto}
}

// Src returns the packet's source endpoint as "ip:port".
func (p Packet) Src() string { return fmt.Sprintf("%s:%d", p.SrcIP, p.SrcPort) }

// Dst returns the packet's destination endpoint as "ip:port".
func (p Packet) Dst() string { return fmt.Sprintf("%s:%d", p.DstIP, p.DstPort) }

// Capture is an append-only packet log with simple filtering, playing
// the role Wireshark plays in the paper's methodology.
type Capture struct {
	packets []Packet
}

// Add appends a packet to the capture.
func (c *Capture) Add(p Packet) { c.packets = append(c.packets, p) }

// Len returns the number of captured packets.
func (c *Capture) Len() int { return len(c.packets) }

// Packets returns a copy of all captured packets in capture order.
func (c *Capture) Packets() []Packet {
	return append([]Packet(nil), c.packets...)
}

// Filter returns the packets matching keep, in capture order.
func (c *Capture) Filter(keep func(Packet) bool) []Packet {
	var out []Packet
	for _, p := range c.packets {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// FromHost returns packets originating at the given IP — the paper
// only analyses traffic originating from the smart speaker.
func (c *Capture) FromHost(ip IPv4) []Packet {
	return c.Filter(func(p Packet) bool { return p.SrcIP == ip })
}

// Between returns packets exchanged between the two IPs, either
// direction.
func (c *Capture) Between(a, b IPv4) []Packet {
	return c.Filter(func(p Packet) bool {
		return (p.SrcIP == a && p.DstIP == b) || (p.SrcIP == b && p.DstIP == a)
	})
}

// byTime implements a typed stable sort over packets, avoiding the
// reflection-based swapper sort.SliceStable builds per call — packet
// merging runs once per generated invocation.
type byTime []Packet

func (s byTime) Len() int           { return len(s) }
func (s byTime) Less(i, j int) bool { return s[i].Time.Before(s[j].Time) }
func (s byTime) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// SortByTime sorts packets by timestamp, preserving capture order for
// equal timestamps. (Stability fully determines the output order, so
// the typed sort is output-identical to any other stable sort.)
func SortByTime(packets []Packet) {
	sort.Stable(byTime(packets))
}
