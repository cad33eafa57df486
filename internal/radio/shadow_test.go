package radio

import (
	"sync"
	"testing"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/rng"
)

// TestSampleStreamUnchangedByWarmCache asserts a cold model and a
// same-seed model that has already evaluated every link produce
// identical Sample streams: deriving the shadow field must not perturb
// any RNG stream.
func TestSampleStreamUnchangedByWarmCache(t *testing.T) {
	plan := floorplan.House()
	cold := NewModel(plan, DefaultParams(), 3)
	warm := NewModel(plan, DefaultParams(), 3)
	spot, _ := plan.Spot("A")

	// Evaluate every link on one model only.
	for _, l := range plan.Locations {
		warm.Mean(spot.Pos, l.Pos)
	}

	srcCold := rng.New(99)
	srcWarm := rng.New(99)
	for _, l := range plan.Locations {
		for i := 0; i < 4; i++ {
			c := cold.Sample(spot.Pos, l.Pos, Pixel5, srcCold)
			w := warm.Sample(spot.Pos, l.Pos, Pixel5, srcWarm)
			if c != w {
				t.Fatalf("loc %d draw %d: cold %v != warm %v", l.ID, i, c, w)
			}
		}
	}
}

// TestShadowCacheConcurrentReaders hammers one model from many
// goroutines (run under -race in CI) and checks the concurrent
// answers match a serial pass on a second same-seed model.
func TestShadowCacheConcurrentReaders(t *testing.T) {
	plan := floorplan.House()
	model := NewModel(plan, DefaultParams(), 11)
	spot, _ := plan.Spot("B")

	serial := make([]float64, len(plan.Locations))
	for i, l := range plan.Locations {
		serial[i] = model.Mean(spot.Pos, l.Pos)
	}

	fresh := NewModel(plan, DefaultParams(), 11)
	const goroutines = 8
	results := make([][]float64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			out := make([]float64, len(plan.Locations))
			for i, l := range plan.Locations {
				out[i] = fresh.Mean(spot.Pos, l.Pos)
			}
			results[g] = out
		}()
	}
	wg.Wait()
	for g, out := range results {
		for i := range out {
			if out[i] != serial[i] {
				t.Fatalf("goroutine %d loc index %d: %v != serial %v", g, i, out[i], serial[i])
			}
		}
	}
}

// TestZeroShadowSigmaSkipsCache keeps the no-shadowing fast path
// intact: with zero shadowing Mean is PathRSSI and shadowAt derives
// nothing, so it allocates nothing.
func TestZeroShadowSigmaSkipsCache(t *testing.T) {
	plan := floorplan.House()
	params := DefaultParams()
	params.ShadowSigma = 0
	model := NewModel(plan, params, 1)
	spot, _ := plan.Spot("A")
	loc := plan.MustLocation(10)
	if model.Mean(spot.Pos, loc.Pos) != model.PathRSSI(spot.Pos, loc.Pos) {
		t.Fatal("Mean != PathRSSI with zero shadowing")
	}
	if n := testing.AllocsPerRun(100, func() { model.shadowAt(spot.Pos, loc.Pos) }); n != 0 {
		t.Fatalf("shadowAt with zero shadowing allocates %v per call", n)
	}
}

// TestShadowAtAllocs pins the derived shadow draw's cost: its PCG
// state escapes through rand.Rand's Source interface (one 16-byte
// allocation) and nothing else may.
func TestShadowAtAllocs(t *testing.T) {
	plan := floorplan.House()
	model := NewModel(plan, DefaultParams(), 1)
	spot, _ := plan.Spot("A")
	loc := plan.MustLocation(55)
	if n := testing.AllocsPerRun(100, func() { model.shadowAt(spot.Pos, loc.Pos) }); n > 1 {
		t.Fatalf("shadowAt allocates %v per call, want at most 1", n)
	}
}

var shadowSink float64

func BenchmarkShadowAt(b *testing.B) {
	plan := floorplan.House()
	model := NewModel(plan, DefaultParams(), 1)
	spot, _ := plan.Spot("A")
	loc := plan.MustLocation(55)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shadowSink = model.shadowAt(spot.Pos, loc.Pos)
	}
}
