package floorplan

import (
	"math/rand/v2"
	"testing"

	"voiceguard/internal/geom"
)

// plainWallLoss is WallLoss without the bounding-box reject: every
// wall on the lower floor goes through the exact segment test.
func plainWallLoss(p *Plan, a, b Position) (loss float64, crossings int) {
	floor := min(a.Floor, b.Floor)
	path := geom.Segment{A: a.At, B: b.At}
	for _, w := range p.Walls[floor] {
		if path.Intersects(w.Seg) {
			loss += w.Loss
			crossings++
		}
	}
	return loss, crossings
}

// TestWallLossMatchesPlainLoop is the property behind the bounding-box
// reject: over every spot-to-location pair and random position pairs
// on all three testbeds, WallLoss equals the plain per-wall loop. Some
// random endpoints sit on a wall end or within the exact test's
// tolerance past it, where a touch still counts.
func TestWallLossMatchesPlainLoop(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, plan := range []*Plan{House(), Apartment(), Office()} {
		var xMax, yMax float64
		var corners []Position
		for floor := 0; floor < plan.Floors; floor++ {
			for _, w := range plan.Walls[floor] {
				corners = append(corners, Position{Floor: floor, At: w.Seg.A}, Position{Floor: floor, At: w.Seg.B})
				xMax = max(xMax, w.Seg.A.X, w.Seg.B.X)
				yMax = max(yMax, w.Seg.A.Y, w.Seg.B.Y)
			}
		}
		randPos := func() Position {
			switch r.IntN(8) {
			case 0:
				return corners[r.IntN(len(corners))]
			case 1:
				c := corners[r.IntN(len(corners))]
				c.At.X += (r.Float64() - 0.5) * 2e-9
				c.At.Y += (r.Float64() - 0.5) * 2e-9
				return c
			}
			return Position{
				Floor: r.IntN(plan.Floors),
				At:    geom.Point{X: r.Float64()*(xMax+2) - 1, Y: r.Float64()*(yMax+2) - 1},
			}
		}
		check := func(a, b Position) {
			t.Helper()
			gotLoss, gotN := plan.WallLoss(a, b)
			wantLoss, wantN := plainWallLoss(plan, a, b)
			if gotLoss != wantLoss || gotN != wantN {
				t.Fatalf("%s %v->%v: WallLoss (%v,%d) != plain loop (%v,%d)",
					plan.Name, a, b, gotLoss, gotN, wantLoss, wantN)
			}
		}
		for _, spot := range plan.Spots {
			for _, l := range plan.Locations {
				check(spot.Pos, l.Pos)
			}
		}
		for i := 0; i < 20000; i++ {
			check(randPos(), randPos())
		}
	}
}

var lossSink float64

func BenchmarkWallLoss(b *testing.B) {
	plan := House()
	spot, _ := plan.Spot("A")
	loc := plan.MustLocation(55)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lossSink, _ = plan.WallLoss(spot.Pos, loc.Pos)
	}
}
