package pcap_test

import (
	"bytes"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

// captureSeed encodes an Echo's boot and one invocation with two
// minutes of the LAN's other hosts' chatter mixed in: TLS records,
// DNS messages and pure ACK-sized packets from several addresses.
func captureSeed(t testing.TB) []byte {
	t0 := time.Date(2023, 3, 6, 6, 0, 0, 0, time.UTC)
	e := trafficgen.NewEcho(rng.New(3))
	packets, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	packets = append(packets, e.Invocation(t0.Add(time.Minute), 1).All()...)
	packets = append(packets, trafficgen.Background(rng.New(4), t0, 2*time.Minute)...)
	pcap.SortByTime(packets)
	var buf bytes.Buffer
	if err := pcap.WriteCapture(&buf, packets); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadCapture feeds arbitrary bytes to the capture reader, the
// input of cmd/vgreplay. It must never panic, and every capture it
// accepts must re-encode to exactly the input bytes: each packet
// record has one encoding.
func FuzzReadCapture(f *testing.F) {
	seed := captureSeed(f)
	f.Add(seed)
	f.Add(seed[:4]) // magic only: an empty capture
	f.Fuzz(func(t *testing.T, b []byte) {
		packets, err := pcap.ReadCapture(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := pcap.WriteCapture(&buf, packets); err != nil {
			t.Fatalf("re-encoding %d accepted packets: %v", len(packets), err)
		}
		if !bytes.Equal(buf.Bytes(), b) {
			t.Fatalf("%d accepted packets re-encode to %d bytes that differ from the %d input bytes",
				len(packets), buf.Len(), len(b))
		}
	})
}
