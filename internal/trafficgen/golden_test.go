package trafficgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

// Golden digests of the generators' output. Every seeded experiment is
// a pure function of these packet streams, so any rewrite of the
// generators — streaming, payload interning, pre-encoded DNS
// questions — must reproduce them byte for byte. The constants were
// recorded on the SplitMix64-keyed PCG streams of package rng; a
// mismatch means a change moved an RNG draw, a timestamp, an address
// or a payload.
const (
	goldenBackground1 = "c1ea8d13f34aaea6579be75b25a0a54a458a0bf07b6bdc8c56f6dc95ddc6757f"
	goldenBackground2 = "370dbe750dd7c236ed8ad8e44b0e2a9aaab2e3a57e792eddf760ac4a04f33c6a"
	goldenBackground3 = "a47d1e538da0a42858d7d44952b7428d1bb41c60db7196e72524ce9dcdf1fdeb"
	goldenEcho        = "2e2daeaff883ac555165cee3da578253d5808130f449c35735acf3c3c6dda896"
	goldenGHM         = "f0752004f064dd5d5c86f4db7fd5e92f50f8b9f08ce8200c0711ff17190e2ed7"
)

// goldenDayStart is the 06:00 start of the simulated day the
// scenario's background chatter covers.
var goldenDayStart = time.Date(2023, 3, 6, 6, 0, 0, 0, time.UTC)

// hashPackets feeds every field of every packet to h, length-prefixing
// the variable-length ones so field boundaries cannot alias.
func hashPackets(h hash.Hash, packets []pcap.Packet) {
	var buf [8]byte
	num := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	bytes := func(b []byte) {
		num(int64(len(b)))
		h.Write(b)
	}
	num(int64(len(packets)))
	for _, p := range packets {
		num(p.Time.UnixNano())
		bytes([]byte(p.SrcIP))
		num(int64(p.SrcPort))
		bytes([]byte(p.DstIP))
		num(int64(p.DstPort))
		num(int64(p.Proto))
		num(int64(p.Len))
		bytes(p.Payload)
	}
}

func digest(packets []pcap.Packet) string {
	h := sha256.New()
	hashPackets(h, packets)
	return hex.EncodeToString(h.Sum(nil))
}

// echoSequence drives an Echo generator through boot, heartbeats,
// invocations with one to three response spikes, and reconnections
// with and without DNS.
func echoSequence(t *testing.T, seed int64) []pcap.Packet {
	t.Helper()
	e := NewEcho(rng.New(seed))
	out, err := e.Boot(goldenDayStart)
	if err != nil {
		t.Fatal(err)
	}
	at := goldenDayStart.Add(time.Minute)
	for i := 0; i < 40; i++ {
		out = append(out, e.Heartbeats(at, 2*time.Minute)...)
		at = at.Add(2 * time.Minute)
		inv := e.InvocationAuto(at)
		out = append(out, inv.All()...)
		at = at.Add(time.Minute)
		if i%5 == 4 {
			re := e.Reconnect(at, i%10 == 4)
			out = append(out, re...)
			at = at.Add(time.Minute)
		}
	}
	return out
}

// ghmSequence drives a GHM generator through enough invocations to
// cover both transports, cached and fresh DNS, and address rotation.
func ghmSequence(t *testing.T, seed int64) []pcap.Packet {
	t.Helper()
	g := NewGHM(rng.New(seed))
	var out []pcap.Packet
	at := goldenDayStart
	for i := 0; i < 60; i++ {
		inv := g.Invocation(at)
		out = append(out, inv.All()...)
		at = at.Add(3 * time.Minute)
	}
	return out
}

func TestGeneratorGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		want string
		gen  func(t *testing.T) []pcap.Packet
	}{
		{"background-seed1", goldenBackground1, func(*testing.T) []pcap.Packet { return backgroundDay(1) }},
		{"background-seed2", goldenBackground2, func(*testing.T) []pcap.Packet { return backgroundDay(2) }},
		{"background-seed3", goldenBackground3, func(*testing.T) []pcap.Packet { return backgroundDay(3) }},
		{"echo", goldenEcho, func(t *testing.T) []pcap.Packet { return echoSequence(t, 4) }},
		{"ghm", goldenGHM, func(t *testing.T) []pcap.Packet { return ghmSequence(t, 5) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			packets := c.gen(t)
			if len(packets) == 0 {
				t.Fatal("generator produced no packets")
			}
			if got := digest(packets); got != c.want {
				t.Errorf("digest of %d packets = %s, want %s", len(packets), got, c.want)
			}
		})
	}
}

// backgroundDay generates one 16-hour day of background chatter.
func backgroundDay(seed int64) []pcap.Packet {
	return Background(rng.New(seed), goldenDayStart, 16*time.Hour)
}
