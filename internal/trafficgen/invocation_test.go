package trafficgen

import (
	"slices"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
)

// checkInvocation fails unless inv's packets are strictly increasing
// in time — what lets All return them without sorting — and Setup and
// the spikes tile Packets in order.
func checkInvocation(t *testing.T, seed int64, inv *Invocation) {
	t.Helper()
	for i := 1; i < len(inv.Packets); i++ {
		if !inv.Packets[i].Time.After(inv.Packets[i-1].Time) {
			t.Fatalf("seed %d %s invocation: packet %d at %v, not after packet %d at %v",
				seed, inv.Speaker, i, inv.Packets[i].Time, i-1, inv.Packets[i-1].Time)
		}
	}
	tiled := append([]pcap.Packet(nil), inv.Setup...)
	for _, s := range inv.Spikes {
		tiled = append(tiled, s.Packets...)
	}
	if len(tiled) != len(inv.Packets) {
		t.Fatalf("seed %d %s invocation: setup and spikes hold %d packets, Packets %d",
			seed, inv.Speaker, len(tiled), len(inv.Packets))
	}
	for i := range tiled {
		if tiled[i].Time != inv.Packets[i].Time || tiled[i].Len != inv.Packets[i].Len {
			t.Fatalf("seed %d %s invocation: packet %d of setup and spikes differs from Packets", seed, inv.Speaker, i)
		}
	}
}

func TestInvocationsAreStrictlyTimeOrdered(t *testing.T) {
	seeds, per := int64(300), 200
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(1); seed <= seeds; seed++ {
		echo, ghm := NewEcho(rng.New(seed)), NewGHM(rng.New(seed))
		var inv Invocation
		at := t0
		for i := 0; i < per; i++ {
			echo.FillInvocation(&inv, at, 1+i%3)
			checkInvocation(t, seed, &inv)
			ghm.FillInvocation(&inv, at)
			checkInvocation(t, seed, &inv)
			at = at.Add(time.Minute)
		}
	}
}

// A reused invocation is refilled in place: after warm-up an Echo
// invocation and a GHM invocation with a DNS exchange allocate
// nothing.
func TestFillInvocationAllocatesNothing(t *testing.T) {
	echo := NewEcho(rng.New(1))
	ghm := NewGHM(rng.New(2))
	ghm.CachedDNSProb = 0 // every invocation resolves the cloud name
	var inv Invocation
	at := t0
	fill := map[string]func(){
		"echo": func() { echo.FillInvocation(&inv, at, 3) },
		"ghm":  func() { ghm.FillInvocation(&inv, at) },
	}
	for _, name := range []string{"echo", "ghm"} {
		for i := 0; i < 10; i++ {
			fill[name]()
		}
		if allocs := testing.AllocsPerRun(200, fill[name]); allocs != 0 {
			t.Errorf("%s invocation allocated %v times", name, allocs)
		}
	}
	if len(inv.Setup) < 2 || inv.Setup[0].Proto != pcap.UDP {
		t.Fatalf("GHM setup %+v carries no DNS exchange", inv.Setup)
	}
}

// A refill must not disturb an invocation someone else generated:
// every Invocation owns its packets and DNS payloads.
func TestInvocationsOwnTheirPayloads(t *testing.T) {
	g := NewGHM(rng.New(3))
	g.CachedDNSProb = 0
	first := g.Invocation(t0)
	want := slices.Clone(first.Setup[0].Payload)
	var other Invocation
	for i := 0; i < 5; i++ {
		g.FillInvocation(&other, t0.Add(time.Duration(i+1)*time.Minute))
	}
	if !slices.Equal(first.Setup[0].Payload, want) {
		t.Fatal("refilling another invocation rewrote the first one's DNS payload")
	}
}

// Background owns the DNS payloads it returns: the stream rewrites
// its scratch buffer every burst, so a collected DNS packet must hold
// the bytes it was emitted with.
func TestBackgroundKeepsDNSPayloads(t *testing.T) {
	const seed = 7
	var want [][]byte
	NewBackgroundStream(rng.New(seed), t0, time.Hour).Drain(func(p *pcap.Packet) {
		if p.Proto == pcap.UDP {
			want = append(want, slices.Clone(p.Payload))
		}
	})
	var got [][]byte
	for _, p := range Background(rng.New(seed), t0, time.Hour) {
		if p.Proto == pcap.UDP {
			got = append(got, p.Payload)
		}
	}
	if len(want) < 4 {
		t.Fatalf("an hour of chatter holds %d DNS packets, want several", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("Background kept %d DNS packets, the stream emitted %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("DNS packet %d holds % x, was emitted as % x", i, got[i], want[i])
		}
	}
}
