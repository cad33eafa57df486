package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSameSeedSameStream(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different seeds matched %d/50 draws", same)
	}
}

func TestSplitIsOrderIndependent(t *testing.T) {
	root1 := New(7)
	root2 := New(7)

	// Consume the parents differently before splitting.
	root1.Float64()
	for i := 0; i < 10; i++ {
		root2.Float64()
	}

	a := root1.Split("radio")
	b := root2.Split("radio")
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split consumed parent state: children diverged")
		}
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	root := New(7)
	a := root.Split("radio")
	b := root.Split("push")
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("differently labelled children matched %d/50 draws", same)
	}
}

func TestSplitNDistinct(t *testing.T) {
	root := New(9)
	seen := make(map[int64]bool)
	for i := 0; i < 64; i++ {
		s := root.SplitN("day", i)
		if seen[s.Seed()] {
			t.Fatalf("SplitN produced duplicate seed at index %d", i)
		}
		seen[s.Seed()] = true
	}
}

func TestUniformInRange(t *testing.T) {
	s := New(3)
	f := func(loRaw, spanRaw uint16) bool {
		lo := float64(loRaw) - 32768
		hi := lo + 1 + float64(spanRaw)
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(11)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(-60, 4)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean+60) > 0.2 {
		t.Fatalf("mean = %v, want ~-60", mean)
	}
	if math.Abs(std-4) > 0.2 {
		t.Fatalf("std = %v, want ~4", std)
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(2.5)
	}
	if mean := sum / n; math.Abs(mean-2.5) > 0.15 {
		t.Fatalf("mean = %v, want ~2.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(17)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("empirical p = %v, want ~0.3", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPickCoversAllElements(t *testing.T) {
	s := New(23)
	xs := []string{"a", "b", "c"}
	counts := make(map[string]int)
	for i := 0; i < 600; i++ {
		counts[Pick(s, xs)]++
	}
	for _, x := range xs {
		if counts[x] < 100 {
			t.Fatalf("element %q under-sampled: %v", x, counts)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(29)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

// TestSeedsDoNotAliasMod31 guards the whole 64-bit seed: seeds that
// agree modulo 2^31-1 (the reduction math/rand's generator applies)
// must still select different streams, both as root seeds and as
// split children.
func TestSeedsDoNotAliasMod31(t *testing.T) {
	const m31 = 1<<31 - 1
	for _, pair := range [][2]int64{{5, 5 + m31}, {-3, -3 + 4*m31}, {0, m31}} {
		a, b := New(pair[0]), New(pair[1])
		same := 0
		for i := 0; i < 100; i++ {
			if a.Float64() == b.Float64() {
				same++
			}
		}
		if same > 0 {
			t.Errorf("New(%d) and New(%d) matched %d/100 draws", pair[0], pair[1], same)
		}
	}
	// Children of congruent roots under one label.
	a, b := New(5).Split("radio"), New(5+m31).Split("radio")
	if a.Seed() == b.Seed() || a.Float64() == b.Float64() {
		t.Error("children of roots congruent mod 2^31-1 alias")
	}
}

// childSink makes split children escape, as they do in real callers.
var childSink *Source

// TestSplitAllocatesOnlyChild pins the derivation cost: Split and
// SplitN hash in place and allocate just the child Source.
func TestSplitAllocatesOnlyChild(t *testing.T) {
	root := New(7)
	if n := testing.AllocsPerRun(100, func() { childSink = root.Split("radio-shadow") }); n != 1 {
		t.Errorf("Split allocates %v, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { childSink = root.SplitN("day", 12) }); n != 1 {
		t.Errorf("SplitN allocates %v, want 1", n)
	}
}

// TestKeyedNormalIsChildStreamFirstDraw checks the stack-built draw
// against the child stream built on the heap from the documented key
// chain, and that it consumes nothing from the parent.
func TestKeyedNormalIsChildStreamFirstDraw(t *testing.T) {
	root := New(11)
	keys := []uint64{0, 12, 34, 1, 5, 1<<64 - 1}
	h := uint64(root.Seed())
	for _, k := range keys {
		h = mix(h ^ k)
	}
	want := New(int64(h)).Normal(0, 1)
	if got := root.KeyedNormal(keys...); got != want {
		t.Fatalf("KeyedNormal = %v, child stream's first Normal = %v", got, want)
	}
	if !root.Fresh() {
		t.Fatal("KeyedNormal drew from the parent stream")
	}
	if root.KeyedNormal(keys[:5]...) == want {
		t.Fatal("dropping a key did not change the draw")
	}
}
