package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// DNSMessage is a minimal DNS message: one question, and for
// responses one A record answering it. This is all the guard needs to
// track the smart speakers' cloud-server addresses.
type DNSMessage struct {
	ID       uint16
	Response bool
	Name     string     // queried domain name
	Addr     netip.Addr // answer address (responses only)
}

// DNSPort is the standard DNS server port.
const DNSPort = 53

const (
	dnsFlagResponse  = 0x8000
	dnsTypeA         = 1
	dnsClassIN       = 1
	dnsAnswerTTL     = 300
	dnsHeaderLen     = 12
	maxDNSLabelBytes = 63

	// dnsAnswerLen is the encoded A answer: a 2-byte compression
	// pointer to the question name, TYPE, CLASS, TTL, RDLENGTH and
	// the 4-byte address.
	dnsAnswerLen = 2 + 10 + 4
	// dnsNamePointer is the compression pointer to offset 12, where
	// the question name starts.
	dnsNamePointer = 0xC000 | dnsHeaderLen
)

// DNSQuestion is a pre-encoded question section: one A/IN question
// for a fixed name. Generators that resolve the same few names over
// and over encode each once and stamp every message from it into a
// buffer they reuse (AppendQuery, AppendResponse), so a message costs
// no allocation and no name encoding.
type DNSQuestion struct {
	wire []byte // labels + QTYPE + QCLASS; shared, never mutated
}

// NewDNSQuestion encodes the A/IN question for name.
func NewDNSQuestion(name string) (DNSQuestion, error) {
	labels, err := encodeName(name)
	if err != nil {
		return DNSQuestion{}, err
	}
	return DNSQuestion{wire: append(labels, 0, dnsTypeA, 0, dnsClassIN)}, nil
}

// Query serialises an A query for the question with the given ID.
func (q DNSQuestion) Query(id uint16) []byte {
	return q.AppendQuery(nil, id)
}

// AppendQuery appends an A query for the question with the given ID
// to b and returns the extended slice.
func (q DNSQuestion) AppendQuery(b []byte, id uint16) []byte {
	b = slices.Grow(b, dnsHeaderLen+len(q.wire))
	var h [dnsHeaderLen]byte
	binary.BigEndian.PutUint16(h[0:2], id)
	binary.BigEndian.PutUint16(h[4:6], 1) // QDCOUNT
	b = append(b, h[:]...)
	return append(b, q.wire...)
}

// Response serialises an A response answering the question with the
// IPv4 address ip.
func (q DNSQuestion) Response(id uint16, ip [4]byte) []byte {
	return q.AppendResponse(nil, id, ip)
}

// AppendResponse appends an A response answering the question with
// the IPv4 address ip to b and returns the extended slice.
func (q DNSQuestion) AppendResponse(b []byte, id uint16, ip [4]byte) []byte {
	b = slices.Grow(b, dnsHeaderLen+len(q.wire)+dnsAnswerLen)
	var h [dnsHeaderLen]byte
	binary.BigEndian.PutUint16(h[0:2], id)
	binary.BigEndian.PutUint16(h[2:4], dnsFlagResponse)
	binary.BigEndian.PutUint16(h[4:6], 1) // QDCOUNT
	binary.BigEndian.PutUint16(h[6:8], 1) // ANCOUNT
	b = append(b, h[:]...)
	b = append(b, q.wire...)

	// Answer: compression pointer to the question name at offset 12.
	var rr [dnsAnswerLen]byte
	binary.BigEndian.PutUint16(rr[0:2], dnsNamePointer)
	binary.BigEndian.PutUint16(rr[2:4], dnsTypeA)
	binary.BigEndian.PutUint16(rr[4:6], dnsClassIN)
	binary.BigEndian.PutUint32(rr[6:10], dnsAnswerTTL)
	binary.BigEndian.PutUint16(rr[10:12], 4)
	copy(rr[12:], ip[:])
	return append(b, rr[:]...)
}

// EncodeDNSQuery serialises an A query for name.
func EncodeDNSQuery(id uint16, name string) ([]byte, error) {
	q, err := NewDNSQuestion(name)
	if err != nil {
		return nil, err
	}
	return q.Query(id), nil
}

// EncodeDNSResponse serialises an A response answering name with addr.
func EncodeDNSResponse(id uint16, name string, addr netip.Addr) ([]byte, error) {
	if !addr.Is4() {
		return nil, fmt.Errorf("pcap: DNS answer %v is not IPv4", addr)
	}
	q, err := NewDNSQuestion(name)
	if err != nil {
		return nil, err
	}
	return q.Response(id, addr.As4()), nil
}

// encodeName serialises a domain name as length-prefixed labels.
func encodeName(name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil, fmt.Errorf("pcap: empty DNS name")
	}
	var out []byte
	for _, label := range strings.Split(name, ".") {
		if label == "" || len(label) > maxDNSLabelBytes {
			return nil, fmt.Errorf("pcap: invalid DNS label %q", label)
		}
		out = append(out, byte(len(label)))
		out = append(out, label...)
	}
	return append(out, 0), nil
}

// ParseDNS parses a DNS message produced by the encoders above (one
// question; responses carry one A answer). A response is accepted only
// if its first answer is exactly that shape — its name the compression
// pointer back to the question, TYPE A, CLASS IN, a 4-byte address —
// so a TXT, AAAA or foreign-name record that happens to carry four
// bytes is never read as the queried name's address.
func ParseDNS(b []byte) (DNSMessage, error) {
	var msg DNSMessage
	if len(b) < dnsHeaderLen {
		return msg, fmt.Errorf("pcap: DNS message too short (%d bytes)", len(b))
	}
	msg.ID = binary.BigEndian.Uint16(b[0:2])
	msg.Response = binary.BigEndian.Uint16(b[2:4])&dnsFlagResponse != 0
	ancount := binary.BigEndian.Uint16(b[6:8])

	name, rest, err := parseName(b[dnsHeaderLen:])
	if err != nil {
		return msg, err
	}
	msg.Name = name
	if len(rest) < 4 {
		return msg, fmt.Errorf("pcap: truncated DNS question")
	}
	rest = rest[4:] // QTYPE + QCLASS

	if msg.Response {
		if ancount == 0 {
			return msg, fmt.Errorf("pcap: DNS response with no answers")
		}
		if len(rest) < dnsAnswerLen {
			return msg, fmt.Errorf("pcap: truncated DNS answer")
		}
		if ptr := binary.BigEndian.Uint16(rest[0:2]); ptr != dnsNamePointer {
			return msg, fmt.Errorf("pcap: DNS answer name %#04x does not point at the question", ptr)
		}
		typ := binary.BigEndian.Uint16(rest[2:4])
		class := binary.BigEndian.Uint16(rest[4:6])
		if typ != dnsTypeA || class != dnsClassIN {
			return msg, fmt.Errorf("pcap: unsupported DNS answer TYPE %d CLASS %d", typ, class)
		}
		if rdlen := binary.BigEndian.Uint16(rest[10:12]); rdlen != 4 {
			return msg, fmt.Errorf("pcap: unsupported DNS answer RDLENGTH %d", rdlen)
		}
		msg.Addr = netip.AddrFrom4([4]byte(rest[12:16]))
	}
	return msg, nil
}

// parseName decodes length-prefixed labels, returning the dotted name
// and the remaining bytes.
func parseName(b []byte) (string, []byte, error) {
	var labels []string
	for {
		if len(b) == 0 {
			return "", nil, fmt.Errorf("pcap: truncated DNS name")
		}
		n := int(b[0])
		b = b[1:]
		if n == 0 {
			break
		}
		if n > maxDNSLabelBytes || len(b) < n {
			return "", nil, fmt.Errorf("pcap: invalid DNS label length %d", n)
		}
		// A dot inside a label would make the dotted name ambiguous
		// ("a.b" as one label or two): reject it, so Name maps back
		// to exactly these labels.
		if bytes.IndexByte(b[:n], '.') >= 0 {
			return "", nil, fmt.Errorf("pcap: DNS label contains a dot")
		}
		labels = append(labels, string(b[:n]))
		b = b[n:]
	}
	if len(labels) == 0 {
		return "", nil, fmt.Errorf("pcap: empty DNS name")
	}
	return strings.Join(labels, "."), b, nil
}

// IsDNSQuery reports whether the packet looks like a DNS query to the
// resolver port and returns the parsed message.
func IsDNSQuery(p *Packet) (DNSMessage, bool) {
	if p.Proto != UDP || p.DstPort != DNSPort {
		return DNSMessage{}, false
	}
	msg, err := ParseDNS(p.Payload)
	if err != nil || msg.Response {
		return DNSMessage{}, false
	}
	return msg, true
}

// IsDNSResponse reports whether the packet looks like a DNS response
// from the resolver port and returns the parsed message.
func IsDNSResponse(p *Packet) (DNSMessage, bool) {
	if p.Proto != UDP || p.SrcPort != DNSPort {
		return DNSMessage{}, false
	}
	msg, err := ParseDNS(p.Payload)
	if err != nil || !msg.Response {
		return DNSMessage{}, false
	}
	return msg, true
}
