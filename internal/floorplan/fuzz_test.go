package floorplan_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/mobility"
	"voiceguard/internal/rng"
)

// closetPlanJSON holds a 0.15 m closet with a location in it: small
// enough that no wander leg fits, which once hung the wander builder.
const closetPlanJSON = `{
  "name": "closet",
  "rooms": [{"name": "closet", "floor": 0, "corners": [[0,0],[0.15,0],[0.15,0.15],[0,0.15]]}],
  "locations": [{"id": 1, "room": "closet", "floor": 0, "at": [0.05,0.05]}],
  "spots": [{"name": "A", "room": "closet", "floor": 0, "at": [0.1,0.1]}]
}`

// FuzzFromJSON feeds arbitrary bytes to the loader vgsim reads user
// floor plans with. FromJSON must never panic; a plan it accepts must
// survive ToJSON → FromJSON unchanged; and the simulation's paths
// through it — every route, and a wander in every non-corridor room
// with a location — must be buildable.
func FuzzFromJSON(f *testing.F) {
	for _, p := range []*floorplan.Plan{floorplan.House(), floorplan.Apartment(), floorplan.Office()} {
		var buf bytes.Buffer
		if err := floorplan.ToJSON(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(closetPlanJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := floorplan.FromJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := floorplan.ToJSON(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := floorplan.FromJSON(&buf)
		if err != nil {
			t.Fatalf("accepted plan rejected after a round trip: %v", err)
		}
		// ToJSON walks the walls map, so floors come back in any
		// order; DeepEqual compares the map per floor.
		for _, c := range []struct {
			what string
			a, b any
		}{
			{"header", []any{p.Name, p.Floors, p.FloorHeight}, []any{q.Name, q.Floors, q.FloorHeight}},
			{"rooms", p.Rooms, q.Rooms},
			{"walls", p.Walls, q.Walls},
			{"locations", p.Locations, q.Locations},
			{"spots", p.Spots, q.Spots},
			{"stairs", p.Stairs, q.Stairs},
			{"routes", p.Routes, q.Routes},
		} {
			if !reflect.DeepEqual(c.a, c.b) {
				t.Fatalf("%s changed in the round trip:\n%v\n%v", c.what, c.a, c.b)
			}
		}
		for name, route := range p.Routes {
			if _, err := mobility.NewRoutePath(route, mobility.DefaultSpeed); err != nil {
				t.Fatalf("route %q: %v", name, err)
			}
		}
		for i, room := range p.Rooms {
			if room.Corridor || len(p.LocationsInRoom(room.Name)) == 0 {
				continue
			}
			if _, err := mobility.NewWanderPath(room, mobility.DefaultSpeed, 10*time.Second, rng.New(int64(i))); err != nil {
				t.Fatalf("wander in room %q: %v", room.Name, err)
			}
		}
	})
}
