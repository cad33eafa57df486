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
// recorded from the slice-building generators; a mismatch means the
// rewrite changed an RNG draw, a timestamp, an address or a payload.
const (
	goldenBackground1 = "91eb875a733de2a1122e402dc17309f1a90c6a2f739885619911869659f8fb2e"
	goldenBackground2 = "a63c9f809b76eb3518cc0a8bf5a0b3fae96a6c2ce04e11e8d70f2df1e7b3a713"
	goldenBackground3 = "4625ec851140911cd2d0f6dd747dc95fdcc56220d19c8f5741f681b3672ebcc0"
	goldenEcho        = "2e8ba47f641f79ac9ccfb801979fc0235f85f49c1597634d4584807e62724dff"
	goldenGHM         = "ed737fc3f436fed7d40a517c59d357c736812a8e8862f65cec4e9f16d4a78558"
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
			re, err := e.Reconnect(at, i%10 == 4)
			if err != nil {
				t.Fatal(err)
			}
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
		inv, err := g.Invocation(at)
		if err != nil {
			t.Fatal(err)
		}
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
