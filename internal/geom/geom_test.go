package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{name: "same point", a: Point{}, b: Point{}, want: 0},
		{name: "unit x", a: Point{}, b: Point{X: 1}, want: 1},
		{name: "3-4-5", a: Point{}, b: Point{X: 3, Y: 4}, want: 5},
		{name: "negative coords", a: Point{X: -1, Y: -1}, b: Point{X: 2, Y: 3}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Dist(tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Dist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a := Point{X: float64(ax), Y: float64(ay)}
		b := Point{X: float64(bx), Y: float64(by)}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Point{X: float64(ax), Y: float64(ay)}
		b := Point{X: float64(bx), Y: float64(by)}
		c := Point{X: float64(cx), Y: float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{X: 0, Y: 0}, Point{X: 10, Y: 20}
	if got := a.Lerp(b, 0); got != a {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Fatalf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Point{X: 5, Y: 10}) {
		t.Fatalf("Lerp(0.5) = %v", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want bool
	}{
		{name: "crossing X", s: Seg(0, 0, 2, 2), u: Seg(0, 2, 2, 0), want: true},
		{name: "parallel apart", s: Seg(0, 0, 2, 0), u: Seg(0, 1, 2, 1), want: false},
		{name: "T touch at endpoint", s: Seg(0, 0, 2, 0), u: Seg(1, 0, 1, 2), want: true},
		{name: "collinear overlap", s: Seg(0, 0, 2, 0), u: Seg(1, 0, 3, 0), want: true},
		{name: "collinear disjoint", s: Seg(0, 0, 1, 0), u: Seg(2, 0, 3, 0), want: false},
		{name: "near miss", s: Seg(0, 0, 1, 1), u: Seg(1.01, 1.01, 2, 2), want: false},
		{name: "shared endpoint", s: Seg(0, 0, 1, 1), u: Seg(1, 1, 2, 0), want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.Intersects(tt.u); got != tt.want {
				t.Fatalf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.u.Intersects(tt.s); got != tt.want {
				t.Fatalf("Intersects (swapped) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCrossingCount(t *testing.T) {
	walls := []Segment{
		Seg(5, 0, 5, 10),  // vertical wall
		Seg(0, 5, 10, 5),  // horizontal wall
		Seg(20, 0, 20, 1), // far away
	}
	tests := []struct {
		name string
		a, b Point
		want int
	}{
		{name: "no walls crossed", a: Point{X: 1, Y: 1}, b: Point{X: 2, Y: 2}, want: 0},
		{name: "one wall", a: Point{X: 1, Y: 1}, b: Point{X: 9, Y: 1}, want: 1},
		{name: "two walls diagonal", a: Point{X: 1, Y: 1}, b: Point{X: 9, Y: 9}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CrossingCount(tt.a, tt.b, walls); got != tt.want {
				t.Fatalf("CrossingCount = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestLineOfSight(t *testing.T) {
	walls := []Segment{Seg(5, 0, 5, 10)}
	if !LineOfSight(Point{X: 1, Y: 1}, Point{X: 4, Y: 9}, walls) {
		t.Fatal("expected line of sight on same side of wall")
	}
	if LineOfSight(Point{X: 1, Y: 5}, Point{X: 9, Y: 5}, walls) {
		t.Fatal("expected wall to block")
	}
}

func TestPolygonContains(t *testing.T) {
	sq := Rect(0, 0, 10, 10)
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{name: "center", p: Point{X: 5, Y: 5}, want: true},
		{name: "outside", p: Point{X: 15, Y: 5}, want: false},
		{name: "on edge", p: Point{X: 0, Y: 5}, want: true},
		{name: "on corner", p: Point{X: 0, Y: 0}, want: true},
		{name: "just outside edge", p: Point{X: -0.001, Y: 5}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sq.Contains(tt.p); got != tt.want {
				t.Fatalf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestPolygonContainsLShape(t *testing.T) {
	l := Polygon{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 5},
		{X: 5, Y: 5}, {X: 5, Y: 10}, {X: 0, Y: 10},
	}
	if !l.Contains(Point{X: 2, Y: 8}) {
		t.Fatal("point in the vertical arm should be inside")
	}
	if l.Contains(Point{X: 8, Y: 8}) {
		t.Fatal("point in the notch should be outside")
	}
}

func TestPolygonTooSmall(t *testing.T) {
	if (Polygon{{X: 0, Y: 0}, {X: 1, Y: 1}}).Contains(Point{}) {
		t.Fatal("degenerate polygon should contain nothing")
	}
}

func TestPolygonEdgesAndCentroid(t *testing.T) {
	sq := Rect(0, 0, 4, 2)
	edges := sq.Edges()
	if len(edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(edges))
	}
	var perimeter float64
	for _, e := range edges {
		perimeter += e.Length()
	}
	if math.Abs(perimeter-12) > 1e-9 {
		t.Fatalf("perimeter = %v, want 12", perimeter)
	}
	if c := sq.Centroid(); c != (Point{X: 2, Y: 1}) {
		t.Fatalf("centroid = %v, want (2,1)", c)
	}
}

func TestCentroidEmpty(t *testing.T) {
	if c := (Polygon{}).Centroid(); c != (Point{}) {
		t.Fatalf("empty centroid = %v", c)
	}
}

func TestRectContainmentProperty(t *testing.T) {
	f := func(xRaw, yRaw uint8) bool {
		x := float64(xRaw) / 16
		y := float64(yRaw) / 16
		inside := Rect(0, 0, 16, 16).Contains(Point{X: x, Y: y})
		return inside // all generated points are within [0,16)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentHelpers(t *testing.T) {
	s := Seg(0, 0, 6, 8)
	if s.Length() != 10 {
		t.Fatalf("Length = %v, want 10", s.Length())
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{X: 1, Y: 2}
	q := Point{X: 3, Y: 5}
	if got := p.Add(q); got != (Point{X: 4, Y: 7}) {
		t.Fatalf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{X: 2, Y: 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{X: 2, Y: 4}) {
		t.Fatalf("Scale = %v", got)
	}
}
