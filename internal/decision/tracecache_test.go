package decision

import (
	"math"
	"testing"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/mobility"
)

// resetTraceMeans empties the process-global trace-mean memo.
func resetTraceMeans() {
	traceMeans.mu.Lock()
	traceMeans.m = nil
	traceMeans.mu.Unlock()
}

// directMeans computes the trace means without the memo.
func directMeans(f *houseFixture, path *mobility.Path) []float64 {
	positions := make([]floorplan.Position, TraceSamples)
	path.SampleInto(0, TraceInterval, positions)
	means := make([]float64, TraceSamples)
	f.scanner.Model.MeanBatch(f.adv.Pos, positions, means)
	return means
}

// TestTraceMeanMemoHitsPastCap fills the memo to its cap with distinct
// entries; a route recorded twice after that must still hit, so the
// dead entries of earlier homes cannot keep a live home's recurring
// paths out.
func TestTraceMeanMemoHitsPastCap(t *testing.T) {
	f := newHouseFixture(t, 3)
	still, err := mobility.NewRoutePath(floorplan.Route{Name: "still", Waypoints: []floorplan.Position{f.pos, f.pos}}, mobility.DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	resetTraceMeans()
	for i := 0; i < traceMeanCacheCap; i++ {
		traceMeanVector(f.scanner, f.adv, still, time.Duration(i), TraceInterval, 1)
	}
	up, err := mobility.NewRoutePath(f.plan.Routes["up"], mobility.DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	RecordTrace(f.scanner, f.adv, up, 0)
	hits := mTraceMeanHits.Value()
	RecordTrace(f.scanner, f.adv, up, 0)
	if got := mTraceMeanHits.Value() - hits; got != 1 {
		t.Fatalf("second recording of the up route hit %d times, want 1", got)
	}
}

// TestTraceMeanMemoKeysPathContents checks that the memo keys a path
// by its points, not its address: a separately built equal path hits,
// a path with one point moved misses, an entry planted under a
// colliding key is not served, and every result is bit-identical to
// MeanBatch over the sampled positions.
func TestTraceMeanMemoKeysPathContents(t *testing.T) {
	f := newHouseFixture(t, 5)
	route := f.plan.Routes["route2"]
	build := func(r floorplan.Route) *mobility.Path {
		p, err := mobility.NewRoutePath(r, mobility.DefaultSpeed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first, rebuilt := build(route), build(route)
	if first == rebuilt {
		t.Fatal("two builds returned the same *Path")
	}
	moved := append([]floorplan.Position(nil), route.Waypoints...)
	moved[1].At.X += 0.5
	other := build(floorplan.Route{Name: route.Name, Waypoints: moved})

	resetTraceMeans()
	plantCollision := func() {
		key := traceMeanKey{
			model: f.scanner.Model.Ident(), tx: f.adv.Pos,
			path: other.Digest(), step: TraceInterval, n: TraceSamples,
		}
		traceMeans.mu.Lock()
		traceMeans.m[key] = traceMeanEntry{path: first, means: directMeans(f, first)}
		traceMeans.mu.Unlock()
	}
	for _, c := range []struct {
		name  string
		path  *mobility.Path
		hit   bool
		setup func()
	}{
		{name: "first build", path: first},
		{name: "equal rebuild", path: rebuilt, hit: true},
		{name: "one point moved", path: other},
		{name: "colliding entry", path: other, setup: plantCollision},
	} {
		if c.setup != nil {
			c.setup()
		}
		hits, misses := mTraceMeanHits.Value(), mTraceMeanMisses.Value()
		got := traceMeanVector(f.scanner, f.adv, c.path, 0, TraceInterval, TraceSamples)
		dh, dm := mTraceMeanHits.Value()-hits, mTraceMeanMisses.Value()-misses
		if c.hit && (dh != 1 || dm != 0) || !c.hit && (dh != 0 || dm != 1) {
			t.Errorf("%s: +%d hits, +%d misses; want hit=%v", c.name, dh, dm, c.hit)
		}
		for i, want := range directMeans(f, c.path) {
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: mean %d = %v, MeanBatch gives %v", c.name, i, got[i], want)
			}
		}
	}
}

var traceSink []float64

// BenchmarkRecordTrace is one bystander's trace on a warm memo: the
// wander path is rebuilt from a fresh split, as every motion event
// does, and RecordTrace serves its means from the memo.
func BenchmarkRecordTrace(b *testing.B) {
	f := newHouseFixture(b, 1)
	room, _ := f.plan.Room("living")
	record := func() []float64 {
		path, err := mobility.NewWanderPath(room, mobility.DefaultSpeed, 9*time.Second, f.root.SplitN("wander", 1))
		if err != nil {
			b.Fatal(err)
		}
		return RecordTrace(f.scanner, f.adv, path, 0)
	}
	record()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceSink = record()
	}
}
