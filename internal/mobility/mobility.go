// Package mobility generates time-parameterised movement paths for
// the people in the simulation: owners walking named routes (the
// stair traces and confusable Routes 2/3 of Fig. 10), and random
// in-room wandering (Route 1).
package mobility

import (
	"fmt"
	"math"
	"sync"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/metrics"
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

// Route-path memoization. A route path is a pure deterministic
// function of the waypoint list and the speed, and the simulation
// rebuilds the same few paths constantly (the stair routes on every
// motion event, two-point "still" routes at the finite set of
// deployment locations). Construction is cheap; the value of the memo
// is POINTER stability — downstream caches key derived per-path
// quantities (e.g. a trace's deterministic RSSI means) by *Path, which
// only hits if the same route yields the same pointer. Paths are
// immutable after construction, so sharing is safe.

type routeKey struct {
	speed     float64
	name      string
	waypoints int
}

type routeEntry struct {
	waypoints []floorplan.Position
	path      *Path
}

var routeCache struct {
	mu      sync.RWMutex
	entries int
	m       map[routeKey][]routeEntry
}

// routeCacheCap bounds the total memoized paths; once full, further
// misses compute without inserting (correctness unaffected).
const routeCacheCap = 8192

// Memo counters on metrics.Default: one add per route or wander
// lookup.
const (
	MetricRouteHits    = "mobility_route_hits_total"
	MetricRouteMisses  = "mobility_route_misses_total"
	MetricWanderHits   = "mobility_wander_hits_total"
	MetricWanderMisses = "mobility_wander_misses_total"
)

var (
	mRouteHits    = metrics.NewCounter(MetricRouteHits)
	mRouteMisses  = metrics.NewCounter(MetricRouteMisses)
	mWanderHits   = metrics.NewCounter(MetricWanderHits)
	mWanderMisses = metrics.NewCounter(MetricWanderMisses)
)

func routeLookup(key routeKey, waypoints []floorplan.Position) (*Path, bool) {
	routeCache.mu.RLock()
	defer routeCache.mu.RUnlock()
entries:
	for _, e := range routeCache.m[key] {
		for i := range waypoints {
			if e.waypoints[i] != waypoints[i] {
				continue entries
			}
		}
		mRouteHits.Inc()
		return e.path, true
	}
	mRouteMisses.Inc()
	return nil, false
}

func routeStore(key routeKey, waypoints []floorplan.Position, p *Path) {
	routeCache.mu.Lock()
	defer routeCache.mu.Unlock()
	if routeCache.m == nil {
		routeCache.m = make(map[routeKey][]routeEntry)
	}
	if routeCache.entries < routeCacheCap {
		wp := append([]floorplan.Position(nil), waypoints...)
		routeCache.m[key] = append(routeCache.m[key], routeEntry{waypoints: wp, path: p})
		routeCache.entries++
	}
}

// NewRoutePath returns a Path that walks the route's waypoints in
// order at the given speed. Consecutive waypoints on different floors
// are treated as a stair climb, which costs hopLength metres of
// walking time; the floor switches halfway through the climb. The
// result is memoized: the same waypoints at the same speed return the
// same (immutable) *Path.
func NewRoutePath(route floorplan.Route, speed float64) (*Path, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("mobility: speed must be positive, got %v", speed)
	}
	if len(route.Waypoints) < 2 {
		return nil, fmt.Errorf("mobility: route %q has %d waypoints", route.Name, len(route.Waypoints))
	}
	key := routeKey{speed: speed, name: route.Name, waypoints: len(route.Waypoints)}
	if p, ok := routeLookup(key, route.Waypoints); ok {
		return p, nil
	}
	p := &Path{points: []timedPoint{{t: 0, pos: route.Waypoints[0]}}}
	elapsed := time.Duration(0)
	for i := 1; i < len(route.Waypoints); i++ {
		prev, next := route.Waypoints[i-1], route.Waypoints[i]
		dist := prev.At.Dist(next.At)
		if prev.Floor != next.Floor {
			dist += hopLength * float64(abs(next.Floor-prev.Floor))
		}
		elapsed += time.Duration(dist / speed * float64(time.Second))
		p.points = append(p.points, timedPoint{t: elapsed, pos: next})
	}
	routeStore(key, route.Waypoints, p)
	return p, nil
}

// wanderStepMax bounds one leg of an in-room wander. People "moving
// within a room" (the paper's Route 1) shuffle around locally — a few
// steps at a time — rather than marching corner to corner, so their
// RSSI "only fluctuates within a small range".
const wanderStepMax = 2.0 // m

// Wander-path memoization. A wander path is a pure function of the
// room geometry, speed, duration, and the seed of a fresh rng stream,
// and the simulation builds one per motion event from a per-event
// split — thousands per simulated week, each paying the stream's
// seeding warmup plus waypoint rejection sampling. The memo returns
// the previously built (immutable) Path when the same inputs recur,
// without ever drawing from the caller's stream.
//
// The room's polygon is part of the derivation but not comparable, so
// the key carries the room's name and floor and each entry stores the
// polygon it was built from; a hit requires vertex-exact equality, so
// two plans reusing a room name can never serve each other's paths.

type wanderKey struct {
	seed     int64
	speed    float64
	duration time.Duration
	floor    int
	name     string
}

type wanderEntry struct {
	poly geom.Polygon
	path *Path
}

var wanderCache struct {
	mu sync.RWMutex
	m  map[wanderKey][]wanderEntry
}

// wanderCacheCap bounds the memo; once full, further misses compute
// without inserting (correctness unaffected).
const wanderCacheCap = 8192

func wanderLookup(key wanderKey, poly geom.Polygon) (*Path, bool) {
	wanderCache.mu.RLock()
	defer wanderCache.mu.RUnlock()
	for _, e := range wanderCache.m[key] {
		if e.poly.Equal(poly) {
			mWanderHits.Inc()
			return e.path, true
		}
	}
	mWanderMisses.Inc()
	return nil, false
}

func wanderStore(key wanderKey, poly geom.Polygon, p *Path) {
	wanderCache.mu.Lock()
	defer wanderCache.mu.Unlock()
	if wanderCache.m == nil {
		wanderCache.m = make(map[wanderKey][]wanderEntry)
	}
	if len(wanderCache.m) < wanderCacheCap {
		wanderCache.m[key] = append(wanderCache.m[key], wanderEntry{poly: poly, path: p})
	}
}

// NewWanderPath returns a Path that wanders randomly inside the room
// for at least the given duration, taking short legs (at most
// wanderStepMax metres) from a random starting point. When src is a
// fresh split (never drawn from), the result is memoized by src's
// seed and the room geometry; a memo hit leaves src untouched, which
// is indistinguishable from a miss because callers split a dedicated
// stream per path.
func NewWanderPath(room floorplan.Room, speed float64, duration time.Duration, src *rng.Source) (*Path, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("mobility: speed must be positive, got %v", speed)
	}
	key := wanderKey{seed: src.Seed(), speed: speed, duration: duration, floor: room.Floor, name: room.Name}
	cacheable := src.Fresh()
	if cacheable {
		if p, ok := wanderLookup(key, room.Poly); ok {
			return p, nil
		}
	}
	p := buildWanderPath(room, speed, duration, src)
	if cacheable {
		wanderStore(key, room.Poly, p)
	}
	return p, nil
}

// buildWanderPath is the seeded derivation the memo serves.
func buildWanderPath(room floorplan.Room, speed float64, duration time.Duration, src *rng.Source) *Path {
	start := randomPointIn(room.Poly, src)
	p := &Path{points: []timedPoint{{t: 0, pos: floorplan.Position{Floor: room.Floor, At: start}}}}
	elapsed := time.Duration(0)
	cur := start
	for elapsed < duration {
		target := localTarget(room.Poly, cur, src)
		dist := cur.Dist(target)
		if dist < 0.2 {
			continue
		}
		elapsed += time.Duration(dist / speed * float64(time.Second))
		p.points = append(p.points, timedPoint{
			t:   elapsed,
			pos: floorplan.Position{Floor: room.Floor, At: target},
		})
		cur = target
	}
	return p
}

// localTarget picks the next wander leg: a point within wanderStepMax
// of cur that stays inside the polygon, falling back to a uniform
// room point if the neighbourhood keeps landing outside.
func localTarget(poly geom.Polygon, cur geom.Point, src *rng.Source) geom.Point {
	for attempt := 0; attempt < 16; attempt++ {
		angle := src.Uniform(0, 2*math.Pi)
		step := src.Uniform(0.4, wanderStepMax)
		cand := geom.Point{
			X: cur.X + step*math.Cos(angle),
			Y: cur.Y + step*math.Sin(angle),
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

// randomPointIn rejection-samples a uniform point inside the polygon.
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
	for {
		pt := geom.Point{X: src.Uniform(minX, maxX), Y: src.Uniform(minY, maxY)}
		if poly.Contains(pt) {
			return pt
		}
	}
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
