package floorplan

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"voiceguard/internal/geom"
)

// JSON schema for user-defined floor plans, so a deployment can model
// its own home instead of the paper's testbeds. Coordinates are in
// metres; walls default to full-wall attenuation when loss is 0.

type jsonPlan struct {
	Name        string         `json:"name"`
	Floors      int            `json:"floors"`
	FloorHeight float64        `json:"floorHeightM"`
	Rooms       []jsonRoom     `json:"rooms"`
	Walls       []jsonWall     `json:"walls"`
	Locations   []jsonLocation `json:"locations"`
	Spots       []jsonSpot     `json:"spots"`
	Stairs      *jsonStairs    `json:"stairs,omitempty"`
	Routes      []jsonRoute    `json:"routes,omitempty"`
}

type jsonRoom struct {
	Name     string      `json:"name"`
	Floor    int         `json:"floor"`
	Corners  [][]float64 `json:"corners"` // polygon vertices [x, y]
	Corridor bool        `json:"corridor,omitempty"`
}

type jsonWall struct {
	Floor  int       `json:"floor"`
	From   []float64 `json:"from"`
	To     []float64 `json:"to"`
	LossDB float64   `json:"lossDb,omitempty"`
}

type jsonLocation struct {
	ID    int       `json:"id"`
	Room  string    `json:"room"`
	Floor int       `json:"floor"`
	At    []float64 `json:"at"`
}

type jsonSpot struct {
	Name      string      `json:"name"`
	Room      string      `json:"room"`
	Floor     int         `json:"floor"`
	At        []float64   `json:"at"`
	LegitArea [][]float64 `json:"legitArea,omitempty"`
}

type jsonStairs struct {
	BottomFloor int            `json:"bottomFloor"`
	TopFloor    int            `json:"topFloor"`
	Path        []jsonWaypoint `json:"path"`
}

type jsonRoute struct {
	Name      string         `json:"name"`
	Waypoints []jsonWaypoint `json:"waypoints"`
}

type jsonWaypoint struct {
	Floor int       `json:"floor"`
	At    []float64 `json:"at"`
}

// FromJSON parses and validates a plan definition.
func FromJSON(r io.Reader) (*Plan, error) {
	var jp jsonPlan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jp); err != nil {
		return nil, fmt.Errorf("floorplan: parse: %w", err)
	}
	if jp.Floors <= 0 {
		jp.Floors = 1
	}
	if jp.FloorHeight <= 0 {
		jp.FloorHeight = 3.0
	}

	p := &Plan{
		Name:        jp.Name,
		Floors:      jp.Floors,
		FloorHeight: jp.FloorHeight,
		Walls:       make(map[int][]Wall),
		Routes:      make(map[string]Route),
	}
	for _, jr := range jp.Rooms {
		poly, err := toPolygon(jr.Corners)
		if err != nil {
			return nil, fmt.Errorf("floorplan: room %q: %w", jr.Name, err)
		}
		p.Rooms = append(p.Rooms, Room{Name: jr.Name, Floor: jr.Floor, Poly: poly, Corridor: jr.Corridor})
	}
	for i, jw := range jp.Walls {
		from, err := toPoint(jw.From)
		if err != nil {
			return nil, fmt.Errorf("floorplan: wall %d from: %w", i, err)
		}
		to, err := toPoint(jw.To)
		if err != nil {
			return nil, fmt.Errorf("floorplan: wall %d to: %w", i, err)
		}
		loss := jw.LossDB
		if loss == 0 {
			loss = fullWallLoss
		}
		p.Walls[jw.Floor] = append(p.Walls[jw.Floor], Wall{Seg: geom.Segment{A: from, B: to}, Loss: loss})
	}
	for _, jl := range jp.Locations {
		at, err := toPoint(jl.At)
		if err != nil {
			return nil, fmt.Errorf("floorplan: location %d: %w", jl.ID, err)
		}
		p.Locations = append(p.Locations, Location{
			ID:   jl.ID,
			Room: jl.Room,
			Pos:  Position{Floor: jl.Floor, At: at},
		})
	}
	for _, js := range jp.Spots {
		at, err := toPoint(js.At)
		if err != nil {
			return nil, fmt.Errorf("floorplan: spot %q: %w", js.Name, err)
		}
		spot := Spot{Name: js.Name, Room: js.Room, Pos: Position{Floor: js.Floor, At: at}}
		if len(js.LegitArea) > 0 {
			poly, err := toPolygon(js.LegitArea)
			if err != nil {
				return nil, fmt.Errorf("floorplan: spot %q legit area: %w", js.Name, err)
			}
			spot.LegitArea = poly
		}
		p.Spots = append(p.Spots, spot)
	}
	if jp.Stairs != nil {
		path, err := toWaypoints(jp.Stairs.Path)
		if err != nil {
			return nil, fmt.Errorf("floorplan: stairs: %w", err)
		}
		p.Stairs = &Stairs{
			BottomFloor: jp.Stairs.BottomFloor,
			TopFloor:    jp.Stairs.TopFloor,
			Path:        path,
		}
	}
	for _, jr := range jp.Routes {
		waypoints, err := toWaypoints(jr.Waypoints)
		if err != nil {
			return nil, fmt.Errorf("floorplan: route %q: %w", jr.Name, err)
		}
		p.Routes[jr.Name] = Route{Name: jr.Name, Waypoints: waypoints}
	}

	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.byID = make(map[int]Location, len(p.Locations))
	for _, l := range p.Locations {
		p.byID[l.ID] = l
	}
	return p, nil
}

// ToJSON serialises a plan in the FromJSON schema (useful as a
// starting point for customisation: dump a built-in testbed, edit,
// reload).
func ToJSON(w io.Writer, p *Plan) error {
	jp := jsonPlan{
		Name:        p.Name,
		Floors:      p.Floors,
		FloorHeight: p.FloorHeight,
	}
	for _, r := range p.Rooms {
		jp.Rooms = append(jp.Rooms, jsonRoom{
			Name:     r.Name,
			Floor:    r.Floor,
			Corners:  fromPolygon(r.Poly),
			Corridor: r.Corridor,
		})
	}
	for floor, walls := range p.Walls {
		for _, wl := range walls {
			jp.Walls = append(jp.Walls, jsonWall{
				Floor:  floor,
				From:   []float64{wl.Seg.A.X, wl.Seg.A.Y},
				To:     []float64{wl.Seg.B.X, wl.Seg.B.Y},
				LossDB: wl.Loss,
			})
		}
	}
	for _, l := range p.Locations {
		jp.Locations = append(jp.Locations, jsonLocation{
			ID:    l.ID,
			Room:  l.Room,
			Floor: l.Pos.Floor,
			At:    []float64{l.Pos.At.X, l.Pos.At.Y},
		})
	}
	for _, s := range p.Spots {
		js := jsonSpot{
			Name:  s.Name,
			Room:  s.Room,
			Floor: s.Pos.Floor,
			At:    []float64{s.Pos.At.X, s.Pos.At.Y},
		}
		if s.LegitArea != nil {
			js.LegitArea = fromPolygon(s.LegitArea)
		}
		jp.Spots = append(jp.Spots, js)
	}
	if p.Stairs != nil {
		jp.Stairs = &jsonStairs{
			BottomFloor: p.Stairs.BottomFloor,
			TopFloor:    p.Stairs.TopFloor,
			Path:        fromWaypoints(p.Stairs.Path),
		}
	}
	for name, r := range p.Routes {
		jp.Routes = append(jp.Routes, jsonRoute{Name: name, Waypoints: fromWaypoints(r.Waypoints)})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jp)
}

func toPoint(xy []float64) (geom.Point, error) {
	if len(xy) != 2 {
		return geom.Point{}, fmt.Errorf("point needs [x, y], got %v", xy)
	}
	// Walks through the plan are timed in int64 nanoseconds, which one
	// leg of about 10^10 m overflows; no building comes near ±10^6 m.
	if math.Abs(xy[0]) > 1e6 || math.Abs(xy[1]) > 1e6 {
		return geom.Point{}, fmt.Errorf("point %v lies beyond ±1e6 m", xy)
	}
	return geom.Point{X: xy[0], Y: xy[1]}, nil
}

func toPolygon(corners [][]float64) (geom.Polygon, error) {
	if len(corners) < 3 {
		return nil, fmt.Errorf("polygon needs at least 3 corners, got %d", len(corners))
	}
	poly := make(geom.Polygon, 0, len(corners))
	for _, c := range corners {
		pt, err := toPoint(c)
		if err != nil {
			return nil, err
		}
		poly = append(poly, pt)
	}
	return poly, nil
}

func fromPolygon(poly geom.Polygon) [][]float64 {
	out := make([][]float64, 0, len(poly))
	for _, pt := range poly {
		out = append(out, []float64{pt.X, pt.Y})
	}
	return out
}

func toWaypoints(jw []jsonWaypoint) ([]Position, error) {
	out := make([]Position, 0, len(jw))
	for i, w := range jw {
		pt, err := toPoint(w.At)
		if err != nil {
			return nil, fmt.Errorf("waypoint %d: %w", i, err)
		}
		out = append(out, Position{Floor: w.Floor, At: pt})
	}
	return out, nil
}

func fromWaypoints(ws []Position) []jsonWaypoint {
	out := make([]jsonWaypoint, 0, len(ws))
	for _, w := range ws {
		out = append(out, jsonWaypoint{Floor: w.Floor, At: []float64{w.At.X, w.At.Y}})
	}
	return out
}
