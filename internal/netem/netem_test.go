package netem

import (
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

var t0 = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

func stream(n int) []pcap.Packet {
	out := make([]pcap.Packet, n)
	for i := range out {
		out[i] = pcap.Packet{
			Time:  t0.Add(time.Duration(i) * 100 * time.Millisecond),
			SrcIP: pcap.MustParseIPv4("10.0.0.2"), SrcPort: 40000,
			DstIP: pcap.MustParseIPv4("1.2.3.4"), DstPort: 443,
			Proto: pcap.TCP, Len: i + 1,
		}
	}
	return out
}

func TestApplyNoImpairmentIsIdentity(t *testing.T) {
	in := stream(50)
	out := Apply(in, Config{}, rng.New(1))
	if len(out) != len(in) {
		t.Fatalf("length changed: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if out[i].Len != in[i].Len || !out[i].Time.Equal(in[i].Time) {
			t.Fatalf("packet %d changed", i)
		}
	}
}

func TestApplyDoesNotModifyInput(t *testing.T) {
	in := stream(20)
	want := in[5].Time
	Apply(in, Config{JitterMax: time.Second, LossRate: 0.5}, rng.New(2))
	if !in[5].Time.Equal(want) {
		t.Fatal("input slice was modified")
	}
}

func TestLossRate(t *testing.T) {
	in := stream(2000)
	out := Apply(in, Config{LossRate: 0.3}, rng.New(3))
	frac := float64(len(out)) / float64(len(in))
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("survival rate %.3f, want ~0.7", frac)
	}
}

func TestDuplicateRate(t *testing.T) {
	in := stream(2000)
	out := Apply(in, Config{DuplicateRate: 0.25}, rng.New(4))
	frac := float64(len(out)) / float64(len(in))
	if frac < 1.2 || frac > 1.3 {
		t.Fatalf("expansion %.3f, want ~1.25", frac)
	}
}

func TestJitterPreservesCountAndSortsOutput(t *testing.T) {
	in := stream(500)
	out := Apply(in, Config{JitterMax: time.Second}, rng.New(5))
	if len(out) != len(in) {
		t.Fatalf("length changed under jitter")
	}
	for i := 1; i < len(out); i++ {
		if out[i].Time.Before(out[i-1].Time) {
			t.Fatal("output not time-sorted")
		}
	}
}

func TestJitterReordersDensePackets(t *testing.T) {
	in := stream(500) // 100 ms spacing
	out := Apply(in, Config{JitterMax: time.Second}, rng.New(6))
	reordered := false
	for i := 1; i < len(out); i++ {
		if out[i].Len < out[i-1].Len {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatal("1 s jitter on 100 ms spacing never reordered")
	}
}

func TestSwapRate(t *testing.T) {
	in := stream(500)
	out := Apply(in, Config{SwapRate: 0.2}, rng.New(7))
	// Timestamps stay monotone (swapped packets exchange times), but
	// payload order changes.
	for i := 1; i < len(out); i++ {
		if out[i].Time.Before(out[i-1].Time) {
			t.Fatal("swap broke time order")
		}
	}
	swapped := 0
	for i := 1; i < len(out); i++ {
		if out[i].Len < out[i-1].Len {
			swapped++
		}
	}
	if swapped == 0 {
		t.Fatal("swap rate 0.2 never swapped")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	in := stream(300)
	cfg := Config{LossRate: 0.1, DuplicateRate: 0.1, JitterMax: 200 * time.Millisecond, SwapRate: 0.05}
	a := Apply(in, cfg, rng.New(9))
	b := Apply(in, cfg, rng.New(9))
	if len(a) != len(b) {
		t.Fatal("same seed different lengths")
	}
	for i := range a {
		if a[i].Len != b[i].Len || !a[i].Time.Equal(b[i].Time) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}
