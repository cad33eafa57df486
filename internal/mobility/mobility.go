// Package mobility generates time-parameterised movement paths for
// the people in the simulation: owners walking named routes (the
// stair traces and confusable Routes 2/3 of Fig. 10), and random
// in-room wandering (Route 1).
package mobility

import (
	"fmt"
	"math"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/rng"
)

// DefaultSpeed is a typical indoor walking speed. At this speed the
// house's stair route (#42 to #48) takes roughly the paper's 8
// seconds.
const DefaultSpeed = 1.2 // m/s

// hopLength is the equivalent walking length of climbing one floor,
// used to give floor transitions a realistic duration.
const hopLength = 3.0 // m

// Path is a time-parameterised position: where a person is at any
// offset from the start of the movement.
type Path struct {
	points []timedPoint
}

type timedPoint struct {
	t   time.Duration
	pos floorplan.Position
}

// bits is the point's exact bit pattern, the unit of Digest and Equal.
func (tp timedPoint) bits() [4]uint64 {
	return [4]uint64{uint64(tp.t), uint64(tp.pos.Floor), math.Float64bits(tp.pos.At.X), math.Float64bits(tp.pos.At.Y)}
}

// Digest is the 64-bit FNV-1a hash of the path's timed points, read
// as words: equal paths have equal digests. It keys memos of
// quantities derived from a path's positions; a memo confirms a hit
// with Equal, since distinct paths can share a digest.
func (p *Path) Digest() uint64 {
	h := uint64(14695981039346656037)
	for _, tp := range p.points {
		for _, w := range tp.bits() {
			h = (h ^ w) * 1099511628211
		}
	}
	return h
}

// Equal reports whether p and q have bit-identical timed points, so
// that every position sampled from one is the same as from the other.
func (p *Path) Equal(q *Path) bool {
	if len(p.points) != len(q.points) {
		return false
	}
	for i := range p.points {
		if p.points[i].bits() != q.points[i].bits() {
			return false
		}
	}
	return true
}

// NewRoutePath returns a Path that walks the route's waypoints in
// order at the given speed. Consecutive waypoints on different floors
// are treated as a stair climb, which costs hopLength metres of
// walking time; the floor switches halfway through the climb.
func NewRoutePath(route floorplan.Route, speed float64) (*Path, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("mobility: speed must be positive, got %v", speed)
	}
	if len(route.Waypoints) < 2 {
		return nil, fmt.Errorf("mobility: route %q has %d waypoints", route.Name, len(route.Waypoints))
	}
	points := make([]timedPoint, 1, len(route.Waypoints))
	points[0] = timedPoint{t: 0, pos: route.Waypoints[0]}
	elapsed := time.Duration(0)
	for i := 1; i < len(route.Waypoints); i++ {
		prev, next := route.Waypoints[i-1], route.Waypoints[i]
		dist := prev.At.Dist(next.At)
		if prev.Floor != next.Floor {
			dist += hopLength * float64(abs(next.Floor-prev.Floor))
		}
		elapsed += time.Duration(dist / speed * float64(time.Second))
		points = append(points, timedPoint{t: elapsed, pos: next})
	}
	return &Path{points: points}, nil
}

// wanderStepMax bounds one leg of an in-room wander. People "moving
// within a room" (the paper's Route 1) shuffle around locally — a few
// steps at a time — rather than marching corner to corner, so their
// RSSI "only fluctuates within a small range".
const wanderStepMax = 2.0 // m

// NewWanderPath returns a Path that wanders randomly inside the room
// for at least the given duration, taking short legs (at most
// wanderStepMax metres) from a random starting point. A room too small
// to hold a leg of 0.2 m gets a path that stands still once the walk
// stops finding one.
func NewWanderPath(room floorplan.Room, speed float64, duration time.Duration, src *rng.Source) (*Path, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("mobility: speed must be positive, got %v", speed)
	}
	at := func(pt geom.Point) floorplan.Position { return floorplan.Position{Floor: room.Floor, At: pt} }
	cur := randomPointIn(room.Poly, src)
	// A leg averages 1.2 m; half again the expected leg count holds
	// about 98 % of 9–10 s walks in one allocation.
	legs := max(0, min(int(speed*duration.Seconds()/1.2), 32))
	points := make([]timedPoint, 1, 1+3*legs/2)
	points[0] = timedPoint{t: 0, pos: at(cur)}
	elapsed := time.Duration(0)
	for skipped := 0; elapsed < duration; {
		target := localTarget(room.Poly, cur, src)
		dist := cur.Dist(target)
		if dist < 0.2 {
			// Skipping does not advance the clock, so in a room under
			// about 0.2 m across it would never end: after 64 skips
			// in a row the walker stands still for the rest of the
			// duration.
			if skipped++; skipped < 64 {
				continue
			}
			points = append(points, timedPoint{t: duration, pos: at(cur)})
			break
		}
		skipped = 0
		elapsed += time.Duration(dist / speed * float64(time.Second))
		points = append(points, timedPoint{t: elapsed, pos: at(target)})
		cur = target
	}
	return &Path{points: points}, nil
}

// localTarget picks the next wander leg: a point within wanderStepMax
// of cur that stays inside the polygon, falling back to a uniform
// room point if the neighbourhood keeps landing outside.
func localTarget(poly geom.Polygon, cur geom.Point, src *rng.Source) geom.Point {
	for attempt := 0; attempt < 16; attempt++ {
		angle := src.Uniform(0, 2*math.Pi)
		step := src.Uniform(0.4, wanderStepMax)
		sin, cos := math.Sincos(angle)
		cand := geom.Point{
			X: cur.X + step*cos,
			Y: cur.Y + step*sin,
		}
		if poly.Contains(cand) {
			return cand
		}
	}
	return randomPointIn(poly, src)
}

// PerimeterRoute returns a route walking the room's boundary — the
// walk-the-room calibration of the threshold app (§IV-C). Each vertex
// is pulled inset metres toward the room centroid so the walker stays
// clear of the walls, and the loop closes back at the start.
func PerimeterRoute(room floorplan.Room, inset float64) floorplan.Route {
	centroid := room.Poly.Centroid()
	waypoints := make([]floorplan.Position, 0, len(room.Poly)+1)
	for _, v := range room.Poly {
		p := v
		if d := v.Dist(centroid); d > inset {
			p = v.Lerp(centroid, inset/d)
		}
		waypoints = append(waypoints, floorplan.Position{Floor: room.Floor, At: p})
	}
	waypoints = append(waypoints, waypoints[0])
	return floorplan.Route{Name: room.Name + "-perimeter", Waypoints: waypoints}
}

// PerimeterRouteOf builds a perimeter route for an arbitrary polygon
// on a floor (e.g. the office red box).
func PerimeterRouteOf(name string, floor int, poly geom.Polygon, inset float64) floorplan.Route {
	return PerimeterRoute(floorplan.Room{Name: name, Floor: floor, Poly: poly}, inset)
}

// randomPointIn rejection-samples a uniform point inside the polygon,
// giving up after 1000 draws.
func randomPointIn(poly geom.Polygon, src *rng.Source) geom.Point {
	minX, minY := poly[0].X, poly[0].Y
	maxX, maxY := minX, minY
	for _, v := range poly[1:] {
		if v.X < minX {
			minX = v.X
		}
		if v.X > maxX {
			maxX = v.X
		}
		if v.Y < minY {
			minY = v.Y
		}
		if v.Y > maxY {
			maxY = v.Y
		}
	}
	for attempt := 0; attempt < 1000; attempt++ {
		pt := geom.Point{X: src.Uniform(minX, maxX), Y: src.Uniform(minY, maxY)}
		if poly.Contains(pt) {
			return pt
		}
	}
	// A sliver of a room can reject every draw; the first vertex
	// stands in rather than looping forever.
	return poly[0]
}

// Duration returns the total duration of the path.
func (p *Path) Duration() time.Duration {
	return p.points[len(p.points)-1].t
}

// Start returns the path's initial position.
func (p *Path) Start() floorplan.Position { return p.points[0].pos }

// End returns the path's final position.
func (p *Path) End() floorplan.Position { return p.points[len(p.points)-1].pos }

// At returns the position at offset t from the start of the path,
// clamping to the endpoints. Between waypoints the horizontal
// position is interpolated linearly; across a floor change the floor
// switches halfway through the segment.
func (p *Path) At(t time.Duration) floorplan.Position {
	if t <= 0 {
		return p.points[0].pos
	}
	last := p.points[len(p.points)-1]
	if t >= last.t {
		return last.pos
	}
	// Find the segment containing t.
	for i := 1; i < len(p.points); i++ {
		if t > p.points[i].t {
			continue
		}
		a, b := p.points[i-1], p.points[i]
		span := b.t - a.t
		frac := 0.0
		if span > 0 {
			frac = float64(t-a.t) / float64(span)
		}
		pos := floorplan.Position{
			Floor: a.pos.Floor,
			At:    a.pos.At.Lerp(b.pos.At, frac),
		}
		if b.pos.Floor != a.pos.Floor && frac >= 0.5 {
			pos.Floor = b.pos.Floor
		}
		return pos
	}
	return last.pos
}

// Sample returns n positions spaced step apart, starting at offset 0.
func (p *Path) Sample(step time.Duration, n int) []floorplan.Position {
	out := make([]floorplan.Position, n)
	p.SampleInto(0, step, out)
	return out
}

// SampleInto fills out with len(out) positions spaced step apart,
// starting at offset. It is value-identical to calling At for each
// sample time, but walks the waypoint list once with a cursor instead
// of rescanning it from the head per sample — the fast path for trace
// recording, where one motion event reads 40 positions along one
// path. step must be non-negative.
func (p *Path) SampleInto(offset, step time.Duration, out []floorplan.Position) {
	last := p.points[len(p.points)-1]
	seg := 1
	for i := range out {
		t := offset + time.Duration(i)*step
		switch {
		case t <= 0:
			out[i] = p.points[0].pos
		case t >= last.t:
			out[i] = last.pos
		default:
			for t > p.points[seg].t {
				seg++
			}
			a, b := p.points[seg-1], p.points[seg]
			span := b.t - a.t
			frac := 0.0
			if span > 0 {
				frac = float64(t-a.t) / float64(span)
			}
			pos := floorplan.Position{
				Floor: a.pos.Floor,
				At:    a.pos.At.Lerp(b.pos.At, frac),
			}
			if b.pos.Floor != a.pos.Floor && frac >= 0.5 {
				pos.Floor = b.pos.Floor
			}
			out[i] = pos
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
