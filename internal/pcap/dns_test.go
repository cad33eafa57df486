package pcap

import (
	"net/netip"
	"testing"
)

const avsName = "avs-alexa-4-na.amazon.com"

func TestDNSQueryRoundTrip(t *testing.T) {
	b, err := EncodeDNSQuery(0x1234, avsName)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ParseDNS(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.ID != 0x1234 || msg.Response || msg.Name != avsName {
		t.Fatalf("parsed %+v", msg)
	}
}

func TestDNSResponseRoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("52.94.233.129")
	b, err := EncodeDNSResponse(7, avsName, addr)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ParseDNS(b)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.Response || msg.Name != avsName || msg.Addr != addr {
		t.Fatalf("parsed %+v", msg)
	}
}

func TestDNSTrailingDotNormalised(t *testing.T) {
	b, err := EncodeDNSQuery(1, "www.google.com.")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ParseDNS(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "www.google.com" {
		t.Fatalf("name = %q", msg.Name)
	}
}

func TestDNSRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", ".", "a..b", string(make([]byte, 70)) + ".com"} {
		if _, err := EncodeDNSQuery(1, name); err == nil {
			t.Fatalf("accepted bad name %q", name)
		}
	}
}

func TestDNSResponseRejectsIPv6(t *testing.T) {
	if _, err := EncodeDNSResponse(1, avsName, netip.MustParseAddr("::1")); err == nil {
		t.Fatal("accepted IPv6 answer")
	}
}

func TestParseDNSRejectsTruncated(t *testing.T) {
	b, err := EncodeDNSResponse(7, avsName, netip.MustParseAddr("1.2.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 5, 11, len(b) - 3} {
		if _, err := ParseDNS(b[:n]); err == nil {
			t.Fatalf("accepted %d-byte truncation", n)
		}
	}
}

func TestIsDNSQueryAndResponse(t *testing.T) {
	qBytes, err := EncodeDNSQuery(9, avsName)
	if err != nil {
		t.Fatal(err)
	}
	rBytes, err := EncodeDNSResponse(9, avsName, netip.MustParseAddr("52.1.2.3"))
	if err != nil {
		t.Fatal(err)
	}

	query := Packet{Proto: UDP, SrcIP: MustParseIPv4("10.0.0.2"), SrcPort: 5000, DstIP: MustParseIPv4("10.0.0.1"), DstPort: DNSPort, Payload: qBytes}
	resp := Packet{Proto: UDP, SrcIP: MustParseIPv4("10.0.0.1"), SrcPort: DNSPort, DstIP: MustParseIPv4("10.0.0.2"), DstPort: 5000, Payload: rBytes}

	if msg, ok := IsDNSQuery(&query); !ok || msg.Name != avsName {
		t.Fatalf("IsDNSQuery = %v, %v", msg, ok)
	}
	if _, ok := IsDNSQuery(&resp); ok {
		t.Fatal("response classified as query")
	}
	if msg, ok := IsDNSResponse(&resp); !ok || msg.Addr != netip.MustParseAddr("52.1.2.3") {
		t.Fatalf("IsDNSResponse = %v, %v", msg, ok)
	}
	if _, ok := IsDNSResponse(&query); ok {
		t.Fatal("query classified as response")
	}

	tcp := query
	tcp.Proto = TCP
	if _, ok := IsDNSQuery(&tcp); ok {
		t.Fatal("TCP packet classified as DNS query")
	}
}

func TestParseDNSRejectsNonAAnswers(t *testing.T) {
	b, err := EncodeDNSResponse(7, avsName, netip.MustParseAddr("1.2.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	// Offsets into the 16-byte answer at the end of the message.
	for name, patch := range map[string]func(answer []byte){
		"TXT type":        func(a []byte) { a[3] = 16 },
		"CHAOS class":     func(a []byte) { a[5] = 3 },
		"foreign name":    func(a []byte) { a[1] = 0x30 },
		"uncompressed":    func(a []byte) { a[0] = 3 },
		"6-byte RDLENGTH": func(a []byte) { a[11] = 6 },
	} {
		bad := append([]byte(nil), b...)
		patch(bad[len(bad)-16:])
		if msg, err := ParseDNS(bad); err == nil {
			t.Errorf("%s: accepted answer %+v", name, msg)
		}
	}
}

func TestParseDNSRejectsDottedLabel(t *testing.T) {
	// The single label "x.x.xcom" would read back as the three-label
	// name x.x.xcom.
	b, err := EncodeDNSQuery(1, "xaxbxcom")
	if err != nil {
		t.Fatal(err)
	}
	b[dnsHeaderLen+2] = '.'
	b[dnsHeaderLen+4] = '.'
	if msg, err := ParseDNS(b); err == nil {
		t.Fatalf("accepted dotted label as %q", msg.Name)
	}
}
