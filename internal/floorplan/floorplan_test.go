package floorplan

import (
	"testing"

	"voiceguard/internal/geom"
)

func allPlans() []*Plan {
	return []*Plan{House(), Apartment(), Office()}
}

func TestPlansValidate(t *testing.T) {
	for _, p := range allPlans() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestLocationCountsMatchPaper(t *testing.T) {
	tests := []struct {
		plan *Plan
		want int
	}{
		{plan: House(), want: 78},
		{plan: Apartment(), want: 54},
		{plan: Office(), want: 70},
	}
	for _, tt := range tests {
		t.Run(tt.plan.Name, func(t *testing.T) {
			if got := len(tt.plan.Locations); got != tt.want {
				t.Fatalf("locations = %d, want %d", got, tt.want)
			}
			for id := 1; id <= tt.want; id++ {
				if _, ok := tt.plan.Location(id); !ok {
					t.Fatalf("missing location %d", id)
				}
			}
		})
	}
}

func TestEachPlanHasTwoSpots(t *testing.T) {
	for _, p := range allPlans() {
		if len(p.Spots) != 2 {
			t.Errorf("%s: %d spots, want 2", p.Name, len(p.Spots))
		}
		for _, name := range []string{"A", "B"} {
			if _, ok := p.Spot(name); !ok {
				t.Errorf("%s: missing spot %q", p.Name, name)
			}
		}
	}
}

func TestHouseLivingRoomIsLocations1To24(t *testing.T) {
	h := House()
	ids := h.LocationsInRoom("living")
	if len(ids) != 24 {
		t.Fatalf("living has %d locations, want 24", len(ids))
	}
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("living ids = %v, want 1..24", ids)
		}
	}
}

func TestHouseHallwayLocationsHaveLineOfSight(t *testing.T) {
	h := House()
	spot, _ := h.Spot("A")
	for id := 25; id <= 27; id++ {
		loc := h.MustLocation(id)
		if !h.LineOfSight(loc.Pos, spot.Pos) {
			t.Errorf("location %d should see the speaker through the doorway", id)
		}
	}
}

func TestHouseKitchenBlockedFromLiving(t *testing.T) {
	h := House()
	spot, _ := h.Spot("A")
	for _, id := range h.LocationsInRoom("kitchen") {
		loc := h.MustLocation(id)
		if h.LineOfSight(loc.Pos, spot.Pos) {
			t.Errorf("kitchen location %d unexpectedly has line of sight to living-room speaker", id)
		}
		if loss, n := h.WallLoss(loc.Pos, spot.Pos); n < 1 || loss < fullWallLoss {
			t.Errorf("kitchen location %d: wall loss %v over %d walls, want at least one wall", id, loss, n)
		}
	}
}

func TestHouseCommandLocationsSpotA(t *testing.T) {
	h := House()
	spot, _ := h.Spot("A")
	ids := h.CommandLocations(spot)
	want := map[int]bool{42: true} // stairs bottom sees the speaker too
	for i := 1; i <= 27; i++ {
		want[i] = true // living room 1-24 plus hallway LoS 25-27
	}
	if len(ids) != len(want) {
		t.Fatalf("CommandLocations = %v, want 1..27 and 42", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected command location %d (got %v)", id, ids)
		}
	}
}

func TestHouseAwayDisjointFromCommand(t *testing.T) {
	for _, p := range allPlans() {
		for _, spot := range p.Spots {
			cmd := p.CommandLocations(spot)
			away := p.AwayLocations(spot)
			if len(cmd) == 0 || len(away) == 0 {
				t.Errorf("%s/%s: command %d / away %d locations, want both non-empty",
					p.Name, spot.Name, len(cmd), len(away))
			}
			if len(cmd)+len(away) > len(p.Locations) {
				t.Errorf("%s/%s: command %d + away %d exceeds %d locations",
					p.Name, spot.Name, len(cmd), len(away), len(p.Locations))
			}
			seen := make(map[int]bool)
			for _, id := range cmd {
				seen[id] = true
			}
			for _, id := range away {
				if seen[id] {
					t.Errorf("%s/%s: location %d in both sets", p.Name, spot.Name, id)
				}
			}
			// Away locations never see the speaker.
			for _, id := range away {
				loc := p.MustLocation(id)
				if p.LineOfSight(loc.Pos, spot.Pos) {
					t.Errorf("%s/%s: away location %d has line of sight", p.Name, spot.Name, id)
				}
			}
		}
	}
}

func TestHouseSecondFloorLocationsAreUpstairs(t *testing.T) {
	h := House()
	for id := 45; id <= 78; id++ {
		if loc := h.MustLocation(id); loc.Pos.Floor != 1 {
			t.Errorf("location %d on floor %d, want 1", id, loc.Pos.Floor)
		}
	}
	for id := 1; id <= 44; id++ {
		if loc := h.MustLocation(id); loc.Pos.Floor != 0 {
			t.Errorf("location %d on floor %d, want 0", id, loc.Pos.Floor)
		}
	}
}

func TestHouseStairs(t *testing.T) {
	h := House()
	s := h.Stairs
	if s == nil {
		t.Fatal("house has no stairs")
	}
	if s.BottomFloor != 0 || s.TopFloor != 1 {
		t.Fatalf("stairs run %d->%d, want 0->1", s.BottomFloor, s.TopFloor)
	}
	if first, last := s.Path[0].Floor, s.Path[len(s.Path)-1].Floor; first != s.BottomFloor || last != s.TopFloor {
		t.Fatalf("stairs path runs %d->%d, want %d->%d", first, last, s.BottomFloor, s.TopFloor)
	}
}

func TestHouseRoutesExist(t *testing.T) {
	h := House()
	for _, name := range []string{"up", "down", "route2", "route3"} {
		r, ok := h.Routes[name]
		if !ok {
			t.Errorf("missing route %q", name)
			continue
		}
		if r.Length() <= 0 {
			t.Errorf("route %q has non-positive length", name)
		}
	}
}

func TestRouteReversed(t *testing.T) {
	h := House()
	up := h.Routes["up"]
	down := h.Routes["down"]
	if up.Length() != down.Length() {
		t.Fatalf("up length %v != down length %v", up.Length(), down.Length())
	}
	last := down.Waypoints[len(down.Waypoints)-1]
	if last != up.Waypoints[0] {
		t.Fatalf("down route does not end where up starts")
	}
}

func TestOfficeRedBoxRestrictsLegitArea(t *testing.T) {
	o := Office()
	spot, _ := o.Spot("A")
	cmd := o.CommandLocations(spot)
	if len(cmd) == 0 || len(cmd) >= 48 {
		t.Fatalf("red box should select a strict subset of the open area, got %d locations", len(cmd))
	}
	for _, id := range cmd {
		loc := o.MustLocation(id)
		if !spot.LegitArea.Contains(loc.Pos.At) {
			t.Errorf("command location %d outside the red box", id)
		}
	}
}

func TestOfficePartitionsAttenuateLessThanWalls(t *testing.T) {
	o := Office()
	spot, _ := o.Spot("A")
	// Across one partition (east of x=7, same band).
	eastOfPartition := Position{Floor: 0, At: geom.Point{X: 8.75, Y: 5}}
	loss, n := o.WallLoss(spot.Pos, eastOfPartition)
	if n != 1 || loss != partitionLoss {
		t.Fatalf("partition crossing: loss=%v n=%d, want %v n=1", loss, n, partitionLoss)
	}
	// Into the conference room crosses a partition bank and a full
	// wall, so the loss must exceed a single full wall.
	conf := Position{Floor: 0, At: geom.Point{X: 16, Y: 4}}
	loss, _ = o.WallLoss(spot.Pos, conf)
	if loss <= fullWallLoss {
		t.Fatalf("conference crossing loss = %v, want > %v", loss, fullWallLoss)
	}
}

func TestApartmentBedroomWallSolid(t *testing.T) {
	a := Apartment()
	spotB, _ := a.Spot("B")
	for _, id := range a.LocationsInRoom("bedroom2") {
		loc := a.MustLocation(id)
		if a.LineOfSight(loc.Pos, spotB.Pos) {
			t.Errorf("bedroom2 location %d should not see spot B through the solid wall", id)
		}
	}
}

func TestRoomAt(t *testing.T) {
	h := House()
	room, ok := h.RoomAt(Position{Floor: 0, At: geom.Point{X: 3, Y: 3}})
	if !ok || room.Name != "living" {
		t.Fatalf("RoomAt(living center) = %v, %v", room.Name, ok)
	}
	if _, ok := h.RoomAt(Position{Floor: 0, At: geom.Point{X: 50, Y: 50}}); ok {
		t.Fatal("RoomAt outside the building should fail")
	}
}

func TestWallLossSymmetric(t *testing.T) {
	h := House()
	a := Position{Floor: 0, At: geom.Point{X: 1, Y: 1}}
	b := Position{Floor: 0, At: geom.Point{X: 11, Y: 9}}
	lossAB, nAB := h.WallLoss(a, b)
	lossBA, nBA := h.WallLoss(b, a)
	if lossAB != lossBA || nAB != nBA {
		t.Fatalf("wall loss asymmetric: (%v,%d) vs (%v,%d)", lossAB, nAB, lossBA, nBA)
	}
}

func TestValidateCatchesBrokenPlans(t *testing.T) {
	tests := []struct {
		name string
		plan *Plan
	}{
		{name: "no locations", plan: &Plan{Name: "x"}},
		{name: "location outside room", plan: &Plan{
			Name:  "x",
			Rooms: []Room{{Name: "r", Floor: 0, Poly: geom.Rect(0, 0, 1, 1)}},
			Locations: []Location{{
				ID: 1, Room: "r",
				Pos: Position{Floor: 0, At: geom.Point{X: 5, Y: 5}},
			}},
		}},
		{name: "unknown room", plan: &Plan{
			Name: "x",
			Locations: []Location{{
				ID: 1, Room: "nope",
				Pos: Position{Floor: 0, At: geom.Point{X: 0.5, Y: 0.5}},
			}},
		}},
		{name: "duplicate id", plan: &Plan{
			Name:  "x",
			Rooms: []Room{{Name: "r", Floor: 0, Poly: geom.Rect(0, 0, 1, 1)}},
			Locations: []Location{
				{ID: 1, Room: "r", Pos: Position{Floor: 0, At: geom.Point{X: 0.5, Y: 0.5}}},
				{ID: 1, Room: "r", Pos: Position{Floor: 0, At: geom.Point{X: 0.6, Y: 0.5}}},
			},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.plan.Validate(); err == nil {
				t.Fatal("Validate accepted a broken plan")
			}
		})
	}
}

func TestMustLocationPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLocation(999) did not panic")
		}
	}()
	House().MustLocation(999)
}
