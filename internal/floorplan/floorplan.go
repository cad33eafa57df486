// Package floorplan models the paper's three real-world testbeds as
// geometric floor plans: a two-floor house (78 measurement locations),
// a two-bedroom apartment (54 locations), and a large office (70
// locations).
//
// A plan consists of rooms (polygons on a floor), walls (segments the
// radio model attenuates through), numbered measurement locations
// mirroring Figures 8 and 9, smart-speaker deployment spots, and named
// walking routes used by the floor-level experiments of Figure 10.
package floorplan

import (
	"fmt"
	"sort"

	"voiceguard/internal/geom"
)

// Position is a place in a building: a floor index (0-based, ground
// floor = 0) and a 2-D point on that floor.
type Position struct {
	Floor int
	At    geom.Point
}

// String renders the position as "F<floor>(x, y)".
func (p Position) String() string { return fmt.Sprintf("F%d%v", p.Floor, p.At) }

// Room is a named polygonal region on one floor. Corridor rooms
// (hallways, landings) are passed through rather than dwelled in:
// people do not wander them, so they contribute no Route-1 traces and
// no dwell locations in the experiment protocol.
type Room struct {
	Name     string
	Floor    int
	Poly     geom.Polygon
	Corridor bool
}

// Contains reports whether the position lies in the room.
func (r Room) Contains(p Position) bool {
	return p.Floor == r.Floor && r.Poly.Contains(p.At)
}

// Location is a numbered measurement location, following the paper's
// 1-based numbering in Figures 8 and 9.
type Location struct {
	ID   int
	Room string
	Pos  Position
}

// Spot is a smart-speaker deployment location. LegitArea, when set,
// restricts the legitimate command area to the given polygon (the
// paper's office "red box"); otherwise the speaker's whole room plus
// same-floor line-of-sight locations are legitimate.
type Spot struct {
	Name      string
	Room      string
	Pos       Position
	LegitArea geom.Polygon
}

// Wall is an attenuating obstacle on a floor. Full walls typically
// cost ~3 dB on the paper's compressed RSSI scale; office cubicle
// partitions cost less. All walls block line of sight.
type Wall struct {
	Seg  geom.Segment
	Loss float64 // dB attenuation per crossing
}

// Stairs connects two floors. Path lists the walking waypoints from
// the bottom of the stairs to the top; each waypoint carries its own
// floor index, switching from BottomFloor to TopFloor partway along.
type Stairs struct {
	BottomFloor int
	TopFloor    int
	Path        []Position
}

// Route is a named walking route: an ordered list of waypoints.
// Routes are straight-line walks between consecutive waypoints.
type Route struct {
	Name      string
	Waypoints []Position
}

// Reversed returns the route walked in the opposite direction.
func (r Route) Reversed() Route {
	w := make([]Position, len(r.Waypoints))
	for i, p := range r.Waypoints {
		w[len(w)-1-i] = p
	}
	return Route{Name: r.Name + "-reversed", Waypoints: w}
}

// Length returns the total horizontal walking distance of the route in
// metres. Floor changes add the plan's stair run length implicitly via
// the waypoint spacing.
func (r Route) Length() float64 {
	var total float64
	for i := 1; i < len(r.Waypoints); i++ {
		total += r.Waypoints[i-1].At.Dist(r.Waypoints[i].At)
	}
	return total
}

// Plan is a full testbed model.
type Plan struct {
	Name        string
	Floors      int
	FloorHeight float64 // metres between floor surfaces

	Rooms     []Room
	Walls     map[int][]Wall // interior + exterior walls per floor
	Locations []Location
	Spots     []Spot // speaker deployment locations (paper: two per testbed)
	Stairs    *Stairs
	Routes    map[string]Route

	byID map[int]Location
}

// Location returns the measurement location with the given 1-based ID.
func (p *Plan) Location(id int) (Location, bool) {
	l, ok := p.byID[id]
	return l, ok
}

// MustLocation returns the location with the given ID and panics if it
// does not exist; intended for plan-definition code and tests.
func (p *Plan) MustLocation(id int) Location {
	l, ok := p.Location(id)
	if !ok {
		panic(fmt.Sprintf("floorplan: %s has no location %d", p.Name, id))
	}
	return l
}

// Spot returns the deployment spot with the given name.
func (p *Plan) Spot(name string) (Spot, bool) {
	for _, s := range p.Spots {
		if s.Name == name {
			return s, true
		}
	}
	return Spot{}, false
}

// Room returns the room with the given name.
func (p *Plan) Room(name string) (Room, bool) {
	for _, r := range p.Rooms {
		if r.Name == name {
			return r, true
		}
	}
	return Room{}, false
}

// RoomAt returns the room containing the position, if any.
func (p *Plan) RoomAt(pos Position) (Room, bool) {
	for _, r := range p.Rooms {
		if r.Contains(pos) {
			return r, true
		}
	}
	return Room{}, false
}

// DwellLocations returns the IDs of locations in non-corridor rooms —
// the places people actually spend time.
func (p *Plan) DwellLocations() []int {
	corridor := make(map[string]bool)
	for _, r := range p.Rooms {
		if r.Corridor {
			corridor[r.Name] = true
		}
	}
	var ids []int
	for _, l := range p.Locations {
		if !corridor[l.Room] {
			ids = append(ids, l.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// LocationsInRoom returns the IDs of all measurement locations in the
// named room, in ascending order.
func (p *Plan) LocationsInRoom(name string) []int {
	var ids []int
	for _, l := range p.Locations {
		if l.Room == name {
			ids = append(ids, l.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// WallLoss returns the total attenuation (dB) of the walls the
// straight horizontal path between two positions crosses, and the
// number of walls crossed. For positions on different floors it uses
// the horizontal projection on the lower floor; the radio model
// combines this with the floor penetration loss.
//
// A wall whose bounding box lies wholly outside the path's (widened by
// the intersection test's tolerance) cannot touch the path, so it is
// rejected before the exact segment test.
func (p *Plan) WallLoss(a, b Position) (loss float64, crossings int) {
	floor := a.Floor
	if b.Floor < floor {
		floor = b.Floor
	}
	minX, maxX := a.At.X, b.At.X
	if minX > maxX {
		minX, maxX = maxX, minX
	}
	minY, maxY := a.At.Y, b.At.Y
	if minY > maxY {
		minY, maxY = maxY, minY
	}
	minX, maxX, minY, maxY = minX-bboxSlack, maxX+bboxSlack, minY-bboxSlack, maxY+bboxSlack
	path := geom.Segment{A: a.At, B: b.At}
	for _, w := range p.Walls[floor] {
		s := w.Seg
		if (s.A.X < minX && s.B.X < minX) || (s.A.X > maxX && s.B.X > maxX) ||
			(s.A.Y < minY && s.B.Y < minY) || (s.A.Y > maxY && s.B.Y > maxY) {
			continue
		}
		if path.Intersects(s) {
			loss += w.Loss
			crossings++
		}
	}
	return loss, crossings
}

// bboxSlack widens WallLoss's bounding-box reject past geom's
// intersection tolerance (1e-9 m), so the reject never drops a wall
// the exact test would count as touching.
const bboxSlack = 1e-6

// LineOfSight reports whether two positions are on the same floor with
// no wall between them.
func (p *Plan) LineOfSight(a, b Position) bool {
	if a.Floor != b.Floor {
		return false
	}
	_, n := p.WallLoss(a, b)
	return n == 0
}

// losDistanceFactor bounds how much farther than the speaker's own
// room a line-of-sight location may be and still count as a command
// location: seeing the speaker through a doorway only helps if the
// user is close enough to notice its activation cues.
const losDistanceFactor = 1.25

// CommandLocations returns the IDs of locations from which a
// legitimate user would plausibly issue a voice command to a speaker
// at the given spot. If the spot declares a LegitArea (the office's
// red box), it is the locations inside that area; otherwise it is the
// locations in the speaker's room, plus nearby same-floor locations
// with line of sight to the speaker (the paper's "locations #25 to
// #27" case).
func (p *Plan) CommandLocations(spot Spot) []int {
	var ids []int
	losBound := losDistanceFactor * p.roomReach(spot)
	for _, l := range p.Locations {
		if spot.LegitArea != nil {
			if l.Pos.Floor == spot.Pos.Floor && spot.LegitArea.Contains(l.Pos.At) {
				ids = append(ids, l.ID)
			}
			continue
		}
		if l.Room == spot.Room {
			ids = append(ids, l.ID)
			continue
		}
		if p.LineOfSight(l.Pos, spot.Pos) && l.Pos.At.Dist(spot.Pos.At) <= losBound {
			ids = append(ids, l.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// roomReach returns the farthest in-room location distance from the
// spot (the extent of the speaker's own room).
func (p *Plan) roomReach(spot Spot) float64 {
	reach := 0.0
	for _, l := range p.Locations {
		if l.Room != spot.Room {
			continue
		}
		if d := l.Pos.At.Dist(spot.Pos.At); d > reach {
			reach = d
		}
	}
	return reach
}

// AwayLocations returns the IDs of locations from which the owner
// cannot notice the speaker's activation cues at all: outside the
// speaker's room (or red box), with no line of sight. The experiment
// protocol issues malicious commands only while every owner is at an
// away location (§V-B3). Locations in neither set — visible but too
// far — are used for neither commands nor attacks.
func (p *Plan) AwayLocations(spot Spot) []int {
	var ids []int
	for _, l := range p.Locations {
		if spot.LegitArea != nil && l.Pos.Floor == spot.Pos.Floor && spot.LegitArea.Contains(l.Pos.At) {
			continue
		}
		if l.Room == spot.Room || p.LineOfSight(l.Pos, spot.Pos) {
			continue
		}
		ids = append(ids, l.ID)
	}
	sort.Ints(ids)
	return ids
}

// Validate checks structural invariants: contiguous 1-based location
// IDs, every location inside its declared room, every spot inside its
// room, routes with at least two waypoints, and stairs (if present)
// connecting two distinct floors.
func (p *Plan) Validate() error {
	if len(p.Locations) == 0 {
		return fmt.Errorf("plan %s: no locations", p.Name)
	}
	seen := make(map[int]bool, len(p.Locations))
	for _, l := range p.Locations {
		if l.ID < 1 || l.ID > len(p.Locations) {
			return fmt.Errorf("plan %s: location ID %d out of range 1..%d", p.Name, l.ID, len(p.Locations))
		}
		if seen[l.ID] {
			return fmt.Errorf("plan %s: duplicate location ID %d", p.Name, l.ID)
		}
		seen[l.ID] = true
		room, ok := p.Room(l.Room)
		if !ok {
			return fmt.Errorf("plan %s: location %d references unknown room %q", p.Name, l.ID, l.Room)
		}
		if !room.Contains(l.Pos) {
			return fmt.Errorf("plan %s: location %d at %v is outside room %q", p.Name, l.ID, l.Pos, l.Room)
		}
	}
	for _, s := range p.Spots {
		room, ok := p.Room(s.Room)
		if !ok {
			return fmt.Errorf("plan %s: spot %q references unknown room %q", p.Name, s.Name, s.Room)
		}
		if !room.Contains(s.Pos) {
			return fmt.Errorf("plan %s: spot %q at %v is outside room %q", p.Name, s.Name, s.Pos, s.Room)
		}
	}
	for name, r := range p.Routes {
		if len(r.Waypoints) < 2 {
			return fmt.Errorf("plan %s: route %q has %d waypoints", p.Name, name, len(r.Waypoints))
		}
	}
	if p.Stairs != nil {
		if p.Stairs.BottomFloor == p.Stairs.TopFloor {
			return fmt.Errorf("plan %s: stairs connect floor %d to itself", p.Name, p.Stairs.BottomFloor)
		}
		if len(p.Stairs.Path) < 2 {
			return fmt.Errorf("plan %s: stairs path too short", p.Name)
		}
	}
	return nil
}

// finish indexes the plan and panics on invariant violations. Plan
// construction happens at program start from static data, so a broken
// plan is a programming error.
func (p *Plan) finish() *Plan {
	p.byID = make(map[int]Location, len(p.Locations))
	for _, l := range p.Locations {
		p.byID[l.ID] = l
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// gridPoints lays out cols×rows points evenly inside the rectangle
// with corners (x0,y0)-(x1,y1), in row-major order (y ascending, then
// x ascending), with half-cell margins from the rectangle edges.
func gridPoints(x0, y0, x1, y1 float64, cols, rows int) []geom.Point {
	dx := (x1 - x0) / float64(cols)
	dy := (y1 - y0) / float64(rows)
	pts := make([]geom.Point, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, geom.Point{
				X: x0 + (float64(c)+0.5)*dx,
				Y: y0 + (float64(r)+0.5)*dy,
			})
		}
	}
	return pts
}

// addGrid appends grid locations for a room to the plan and returns
// the next free ID.
func addGrid(p *Plan, nextID int, room string, floor int, x0, y0, x1, y1 float64, cols, rows int) int {
	for _, pt := range gridPoints(x0, y0, x1, y1, cols, rows) {
		p.Locations = append(p.Locations, Location{
			ID:   nextID,
			Room: room,
			Pos:  Position{Floor: floor, At: pt},
		})
		nextID++
	}
	return nextID
}

// addLine appends locations along a straight line (inclusive of both
// ends) and returns the next free ID.
func addLine(p *Plan, nextID int, room string, floor int, from, to geom.Point, n int) int {
	for i := 0; i < n; i++ {
		t := 0.0
		if n > 1 {
			t = float64(i) / float64(n-1)
		}
		p.Locations = append(p.Locations, Location{
			ID:   nextID,
			Room: room,
			Pos:  Position{Floor: floor, At: from.Lerp(to, t)},
		})
		nextID++
	}
	return nextID
}
