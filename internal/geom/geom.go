// Package geom provides the small amount of 2-D computational geometry
// the indoor radio model needs: points, segments, segment
// intersection, point-in-polygon tests, and wall-crossing counts used
// to attenuate Bluetooth signals.
//
// Coordinates are in metres. Each floor of a testbed is its own 2-D
// plane; the floor index is carried separately (see package floorplan).
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D position in metres.
type Point struct {
	X, Y float64
}

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{X: p.X * k, Y: p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Lerp returns the point a fraction t of the way from p to q.
// t outside [0, 1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// Segment is a 2-D line segment.
type Segment struct {
	A, B Point
}

// Seg is shorthand for constructing a Segment from coordinates.
func Seg(ax, ay, bx, by float64) Segment {
	return Segment{A: Point{X: ax, Y: ay}, B: Point{X: bx, Y: by}}
}

// Length returns the segment's length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// cross returns the z-component of (b-a) × (c-a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

const eps = 1e-9

// onSegment reports whether point p, known to be collinear with s,
// lies within s's bounding box.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X)-eps <= p.X && p.X <= math.Max(s.A.X, s.B.X)+eps &&
		math.Min(s.A.Y, s.B.Y)-eps <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)+eps
}

// Intersects reports whether segments s and t share at least one
// point, including endpoint touches and collinear overlap.
func (s Segment) Intersects(t Segment) bool {
	d1 := cross(t.A, t.B, s.A)
	d2 := cross(t.A, t.B, s.B)
	d3 := cross(s.A, s.B, t.A)
	d4 := cross(s.A, s.B, t.B)

	if ((d1 > eps && d2 < -eps) || (d1 < -eps && d2 > eps)) &&
		((d3 > eps && d4 < -eps) || (d3 < -eps && d4 > eps)) {
		return true
	}
	switch {
	case math.Abs(d1) <= eps && onSegment(t, s.A):
		return true
	case math.Abs(d2) <= eps && onSegment(t, s.B):
		return true
	case math.Abs(d3) <= eps && onSegment(s, t.A):
		return true
	case math.Abs(d4) <= eps && onSegment(s, t.B):
		return true
	}
	return false
}

// CrossingCount returns how many of the walls the segment from a to b
// crosses. Endpoint touches count as crossings; a radio path grazing a
// wall is attenuated in practice.
func CrossingCount(a, b Point, walls []Segment) int {
	path := Segment{A: a, B: b}
	n := 0
	for _, w := range walls {
		if path.Intersects(w) {
			n++
		}
	}
	return n
}

// LineOfSight reports whether the straight path from a to b crosses
// none of the walls.
func LineOfSight(a, b Point, walls []Segment) bool {
	return CrossingCount(a, b, walls) == 0
}

// Polygon is a simple polygon given by its vertices in order. The
// closing edge from the last vertex back to the first is implicit.
type Polygon []Point

// Equal reports whether the two polygons have identical vertex lists
// (exact float equality, no rotation or reflection tolerance).
func (poly Polygon) Equal(q Polygon) bool {
	if len(poly) != len(q) {
		return false
	}
	for i := range poly {
		if poly[i] != q[i] {
			return false
		}
	}
	return true
}

// Contains reports whether p lies inside the polygon (points exactly
// on an edge count as inside). It uses the even-odd ray-casting rule.
func (poly Polygon) Contains(p Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	// Edge check first so boundary points are deterministic.
	for i := 0; i < n; i++ {
		e := Segment{A: poly[i], B: poly[(i+1)%n]}
		if math.Abs(cross(e.A, e.B, p)) <= eps && onSegment(e, p) {
			return true
		}
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		pi, pj := poly[i], poly[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xAt := pi.X + (p.Y-pi.Y)*(pj.X-pi.X)/(pj.Y-pi.Y)
			if p.X < xAt {
				inside = !inside
			}
		}
	}
	return inside
}

// Edges returns the polygon's boundary as segments.
func (poly Polygon) Edges() []Segment {
	n := len(poly)
	if n < 2 {
		return nil
	}
	edges := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Segment{A: poly[i], B: poly[(i+1)%n]})
	}
	return edges
}

// Centroid returns the arithmetic mean of the polygon's vertices,
// which is sufficient for the convex, axis-aligned rooms used here.
func (poly Polygon) Centroid() Point {
	var c Point
	if len(poly) == 0 {
		return c
	}
	for _, p := range poly {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(poly)))
}

// Rect returns an axis-aligned rectangular polygon with the given
// opposite corners.
func Rect(x0, y0, x1, y1 float64) Polygon {
	return Polygon{
		{X: x0, Y: y0},
		{X: x1, Y: y0},
		{X: x1, Y: y1},
		{X: x0, Y: y1},
	}
}
