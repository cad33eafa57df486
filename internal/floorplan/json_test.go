package floorplan

import (
	"bytes"
	"strings"
	"testing"

	"voiceguard/internal/geom"
)

func TestJSONRoundTripBuiltins(t *testing.T) {
	for _, p := range allPlans() {
		t.Run(p.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ToJSON(&buf, p); err != nil {
				t.Fatal(err)
			}
			got, err := FromJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != p.Name || got.Floors != p.Floors || got.FloorHeight != p.FloorHeight {
				t.Fatalf("header mismatch: %s/%d/%v", got.Name, got.Floors, got.FloorHeight)
			}
			if len(got.Locations) != len(p.Locations) {
				t.Fatalf("locations = %d, want %d", len(got.Locations), len(p.Locations))
			}
			if len(got.Rooms) != len(p.Rooms) || len(got.Spots) != len(p.Spots) {
				t.Fatal("rooms or spots lost in round trip")
			}
			// Wall structure preserved: same loss between the same
			// positions.
			for _, spotName := range []string{"A", "B"} {
				spot, _ := p.Spot(spotName)
				for _, id := range []int{1, len(p.Locations) / 2, len(p.Locations)} {
					orig := p.MustLocation(id)
					wantLoss, wantN := p.WallLoss(spot.Pos, orig.Pos)
					gotLoss, gotN := got.WallLoss(spot.Pos, got.MustLocation(id).Pos)
					if wantLoss != gotLoss || wantN != gotN {
						t.Fatalf("wall loss to #%d changed: (%v,%d) vs (%v,%d)", id, wantLoss, wantN, gotLoss, gotN)
					}
				}
			}
			if (p.Stairs == nil) != (got.Stairs == nil) {
				t.Fatal("stairs presence changed")
			}
			if len(got.Routes) != len(p.Routes) {
				t.Fatalf("routes = %d, want %d", len(got.Routes), len(p.Routes))
			}
		})
	}
}

const customPlanJSON = `{
  "name": "studio",
  "floors": 1,
  "floorHeightM": 2.8,
  "rooms": [
    {"name": "main", "floor": 0, "corners": [[0,0],[6,0],[6,4],[0,4]]},
    {"name": "bath", "floor": 0, "corners": [[6,0],[8,0],[8,4],[6,4]]}
  ],
  "walls": [
    {"floor": 0, "from": [0,0], "to": [8,0]},
    {"floor": 0, "from": [8,0], "to": [8,4]},
    {"floor": 0, "from": [8,4], "to": [0,4]},
    {"floor": 0, "from": [0,4], "to": [0,0]},
    {"floor": 0, "from": [6,0], "to": [6,1.5]},
    {"floor": 0, "from": [6,2.5], "to": [6,4], "lossDb": 2}
  ],
  "locations": [
    {"id": 1, "room": "main", "floor": 0, "at": [1,1]},
    {"id": 2, "room": "main", "floor": 0, "at": [3,2]},
    {"id": 3, "room": "main", "floor": 0, "at": [5,3]},
    {"id": 4, "room": "bath", "floor": 0, "at": [7,0.8]}
  ],
  "spots": [
    {"name": "A", "room": "main", "floor": 0, "at": [1,2]}
  ]
}`

func TestFromJSONCustomPlan(t *testing.T) {
	p, err := FromJSON(strings.NewReader(customPlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "studio" || len(p.Locations) != 4 {
		t.Fatalf("plan = %s with %d locations", p.Name, len(p.Locations))
	}
	spot, ok := p.Spot("A")
	if !ok {
		t.Fatal("spot A missing")
	}
	cmd := p.CommandLocations(spot)
	if len(cmd) != 3 {
		t.Fatalf("command locations = %v, want the 3 main-room ones", cmd)
	}
	// The wall below the doorway attenuates into the bath corner.
	loss, n := p.WallLoss(spot.Pos, p.MustLocation(4).Pos)
	if n != 1 || loss != fullWallLoss {
		t.Fatalf("bath wall loss = %v over %d walls, want %v over 1", loss, n, fullWallLoss)
	}
	// Through the doorway there is line of sight.
	doorSide := Position{Floor: 0, At: geom.Point{X: 7, Y: 2}}
	if !p.LineOfSight(spot.Pos, doorSide) {
		t.Fatal("no line of sight through the doorway")
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		body string
	}{
		{name: "garbage", body: "{nope"},
		{name: "unknown field", body: `{"name":"x","wifi":true}`},
		{name: "bad polygon", body: `{"name":"x","rooms":[{"name":"r","floor":0,"corners":[[0,0],[1,1]]}]}`},
		{name: "bad point", body: `{"name":"x","rooms":[{"name":"r","floor":0,"corners":[[0,0],[1],[1,1]]}]}`},
		{name: "location outside room", body: `{
			"name":"x",
			"rooms":[{"name":"r","floor":0,"corners":[[0,0],[1,0],[1,1],[0,1]]}],
			"locations":[{"id":1,"room":"r","floor":0,"at":[5,5]}]
		}`},
		{name: "no locations", body: `{"name":"x","rooms":[{"name":"r","floor":0,"corners":[[0,0],[1,0],[1,1],[0,1]]}]}`},
		{name: "coordinate span overflows", body: `{
			"name":"x",
			"rooms":[{"name":"r","floor":0,"corners":[[-1e308,0],[1e308,0],[1e308,1],[-1e308,1]]}],
			"locations":[{"id":1,"room":"r","floor":0,"at":[0,0.5]}]
		}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromJSON(strings.NewReader(tt.body)); err == nil {
				t.Fatal("invalid plan accepted")
			}
		})
	}
}

func TestFromJSONDefaults(t *testing.T) {
	p, err := FromJSON(strings.NewReader(customPlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.FloorHeight != 2.8 {
		t.Fatalf("floor height = %v", p.FloorHeight)
	}
	// Zero-loss walls defaulted to the full-wall value.
	found := false
	for _, w := range p.Walls[0] {
		if w.Loss == fullWallLoss {
			found = true
		}
	}
	if !found {
		t.Fatal("default wall loss not applied")
	}
}
