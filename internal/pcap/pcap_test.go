package pcap

import (
	"testing"
	"time"
	"unsafe"
)

var t0 = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

func pkt(at time.Duration, src, dst string, length int) Packet {
	return Packet{
		Time:  t0.Add(at),
		SrcIP: MustParseIPv4(src), SrcPort: 40000,
		DstIP: MustParseIPv4(dst), DstPort: 443,
		Proto: TCP,
		Len:   length,
	}
}

func TestFlowKeyDistinguishesDirections(t *testing.T) {
	a := pkt(0, "10.0.0.2", "1.2.3.4", 100)
	b := Packet{
		Time:  t0,
		SrcIP: MustParseIPv4("1.2.3.4"), SrcPort: 443,
		DstIP: MustParseIPv4("10.0.0.2"), DstPort: 40000,
		Proto: TCP, Len: 100,
	}
	if a.Flow() == b.Flow() {
		t.Fatal("opposite directions share a flow")
	}
}

func TestSortByTimeStable(t *testing.T) {
	packets := []Packet{
		pkt(2*time.Second, "10.0.0.2", "1.2.3.4", 1),
		pkt(0, "10.0.0.2", "1.2.3.4", 2),
		pkt(0, "10.0.0.2", "1.2.3.4", 3),
	}
	SortByTime(packets)
	if packets[0].Len != 2 || packets[1].Len != 3 || packets[2].Len != 1 {
		t.Fatalf("sorted lengths = %d, %d, %d", packets[0].Len, packets[1].Len, packets[2].Len)
	}
}

func TestProtocolString(t *testing.T) {
	if TCP.String() != "TCP" || UDP.String() != "UDP" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(9).String() == "TCP" {
		t.Fatal("unknown protocol mislabelled")
	}
}

// TestPacketSize pins the packet at 72 bytes: a packet is copied into
// every spike buffer and capture, so its size is the cost of a copy.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 72 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d bytes, want at most 72", got)
	}
}
