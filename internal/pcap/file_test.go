package pcap

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func samplePackets(t *testing.T) []Packet {
	t.Helper()
	app, err := AppData(138)
	if err != nil {
		t.Fatal(err)
	}
	return []Packet{
		{
			Time:  t0,
			SrcIP: MustParseIPv4("192.168.1.200"), SrcPort: 40001,
			DstIP: MustParseIPv4("52.94.233.1"), DstPort: 443,
			Proto: TCP, Len: 138, Payload: app,
		},
		{
			Time:  t0.Add(time.Second),
			SrcIP: MustParseIPv4("192.168.1.200"), SrcPort: 5353,
			DstIP: MustParseIPv4("192.168.1.1"), DstPort: 53,
			Proto: UDP, Len: 48, Payload: []byte{1, 2, 3},
		},
		{
			Time:  t0.Add(2 * time.Second),
			SrcIP: MustParseIPv4("1.2.3.4"), SrcPort: 443,
			DstIP: MustParseIPv4("192.168.1.200"), DstPort: 40001,
			Proto: TCP, Len: 0, // pure ACK: no payload
		},
	}
}

func TestCaptureFileRoundTrip(t *testing.T) {
	in := samplePackets(t)
	var buf bytes.Buffer
	if err := WriteCapture(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("packets = %d, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if !a.Time.Equal(b.Time) || a.SrcIP != b.SrcIP || a.SrcPort != b.SrcPort ||
			a.DstIP != b.DstIP || a.DstPort != b.DstPort || a.Proto != b.Proto || a.Len != b.Len {
			t.Fatalf("packet %d mismatch: %+v vs %+v", i, a, b)
		}
		if !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("packet %d payload mismatch", i)
		}
	}
}

func TestCaptureFileEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCapture(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("packets = %d, want 0", len(out))
	}
}

func TestReadCaptureRejectsBadMagic(t *testing.T) {
	if _, err := ReadCapture(bytes.NewReader([]byte("NOPE----"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadCapture(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadCaptureRejectsTruncation(t *testing.T) {
	in := samplePackets(t)
	var buf bytes.Buffer
	if err := WriteCapture(&buf, in); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate mid-record at several depths.
	for _, cut := range []int{5, 12, 20, len(full) - 2} {
		if _, err := ReadCapture(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if err == io.EOF {
			t.Fatalf("truncation at %d reported as clean EOF", cut)
		}
	}
}

// TestReadCaptureRejectsNonIPv4 hand-encodes one packet record whose
// source address is not a dotted-decimal IPv4 address: an oversized
// string, a hostname, leading zeros, IPv6 and IPv4-in-IPv6. The reader
// must reject each, since only the canonical form re-encodes to the
// same bytes.
func TestReadCaptureRejectsNonIPv4(t *testing.T) {
	long := strings.Repeat("a", 255)
	for _, addr := range []string{long, "", "speaker.local", "192.168.001.200", "1.2.3", "::1", "::ffff:1.2.3.4", "1.2.3.4%eth0"} {
		var rec bytes.Buffer
		rec.Write(captureMagic[:])
		rec.Write(make([]byte, 8)) // unixNano
		rec.WriteByte(byte(TCP))
		rec.WriteByte(byte(len(addr)))
		rec.WriteString(addr)
		rec.Write([]byte{0, 1}) // srcPort
		rec.Write([]byte{7, '1', '.', '2', '.', '3', '.', '4'})
		rec.Write([]byte{0, 2})    // dstPort
		rec.Write(make([]byte, 8)) // len, payloadLen
		if _, err := ReadCapture(&rec); err == nil {
			t.Errorf("source address %q accepted", addr)
		}
	}
}

func TestCaptureRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, length uint16, payload []byte) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		in := []Packet{{
			Time:  t0,
			SrcIP: MustParseIPv4("10.0.0.1"), SrcPort: srcPort,
			DstIP: MustParseIPv4("10.0.0.2"), DstPort: dstPort,
			Proto: TCP, Len: int(length), Payload: payload,
		}}
		var buf bytes.Buffer
		if err := WriteCapture(&buf, in); err != nil {
			return false
		}
		out, err := ReadCapture(&buf)
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].SrcPort == srcPort &&
			out[0].DstPort == dstPort &&
			out[0].Len == int(length) &&
			bytes.Equal(out[0].Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
