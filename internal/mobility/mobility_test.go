package mobility

import (
	"testing"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/rng"
)

func TestRoutePathEndpoints(t *testing.T) {
	h := floorplan.House()
	p, err := NewRoutePath(h.Routes["route2"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Start() != h.Routes["route2"].Waypoints[0] {
		t.Fatalf("start = %v", p.Start())
	}
	if p.End() != h.Routes["route2"].Waypoints[len(h.Routes["route2"].Waypoints)-1] {
		t.Fatalf("end = %v", p.End())
	}
}

func TestRoutePathClampsOutsideRange(t *testing.T) {
	h := floorplan.House()
	p, err := NewRoutePath(h.Routes["up"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if p.At(-time.Second) != p.Start() {
		t.Fatal("negative time should clamp to start")
	}
	if p.At(p.Duration()+time.Hour) != p.End() {
		t.Fatal("past-end time should clamp to end")
	}
}

func TestUpRouteTakesAboutEightSeconds(t *testing.T) {
	// The paper reports ~8 s to walk from location #42 to #48.
	h := floorplan.House()
	p, err := NewRoutePath(h.Routes["up"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Duration().Seconds()
	if d < 6 || d > 10 {
		t.Fatalf("up route takes %.1f s, want ~8 s", d)
	}
}

func TestUpRouteChangesFloor(t *testing.T) {
	h := floorplan.House()
	p, err := NewRoutePath(h.Routes["up"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Start().Floor != 0 || p.End().Floor != 1 {
		t.Fatalf("up route floors %d->%d, want 0->1", p.Start().Floor, p.End().Floor)
	}
	// The floor must switch exactly once, monotonically.
	switches := 0
	prev := p.At(0).Floor
	for ts := time.Duration(0); ts <= p.Duration(); ts += 100 * time.Millisecond {
		f := p.At(ts).Floor
		if f != prev {
			switches++
			if f < prev {
				t.Fatalf("up route went down a floor at %v", ts)
			}
			prev = f
		}
	}
	if switches != 1 {
		t.Fatalf("floor switched %d times, want 1", switches)
	}
}

func TestFloorHopCostsTime(t *testing.T) {
	h := floorplan.House()
	up, err := NewRoutePath(h.Routes["up"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	// The hop adds hopLength/speed beyond the horizontal length.
	horizontal := h.Routes["up"].Length() / DefaultSpeed
	withHop := up.Duration().Seconds()
	if withHop <= horizontal {
		t.Fatalf("duration %.2f s should exceed horizontal-only %.2f s", withHop, horizontal)
	}
}

func TestRoutePathMovesContinuously(t *testing.T) {
	h := floorplan.House()
	p, err := NewRoutePath(h.Routes["route3"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	const step = 200 * time.Millisecond
	maxStep := DefaultSpeed*step.Seconds() + 1e-9
	prev := p.At(0)
	for ts := step; ts <= p.Duration(); ts += step {
		cur := p.At(ts)
		if d := prev.At.Dist(cur.At); d > maxStep {
			t.Fatalf("jumped %.3f m in one step at %v (max %.3f)", d, ts, maxStep)
		}
		prev = cur
	}
}

func TestSampleCount(t *testing.T) {
	h := floorplan.House()
	p, err := NewRoutePath(h.Routes["up"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	// The paper records 40 samples at 0.2 s.
	samples := p.Sample(200*time.Millisecond, 40)
	if len(samples) != 40 {
		t.Fatalf("samples = %d, want 40", len(samples))
	}
	if samples[0] != p.Start() {
		t.Fatal("first sample should be the start")
	}
}

func TestNewRoutePathRejectsBadInput(t *testing.T) {
	h := floorplan.House()
	if _, err := NewRoutePath(h.Routes["up"], 0); err == nil {
		t.Fatal("zero speed accepted")
	}
	if _, err := NewRoutePath(floorplan.Route{Name: "x"}, 1); err == nil {
		t.Fatal("empty route accepted")
	}
}

func TestWanderStaysInRoom(t *testing.T) {
	h := floorplan.House()
	room, _ := h.Room("living")
	p, err := NewWanderPath(room, DefaultSpeed, 30*time.Second, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration() < 30*time.Second {
		t.Fatalf("wander duration %v shorter than requested", p.Duration())
	}
	for ts := time.Duration(0); ts <= p.Duration(); ts += 250 * time.Millisecond {
		pos := p.At(ts)
		if pos.Floor != room.Floor || !room.Poly.Contains(pos.At) {
			t.Fatalf("wander left the room at %v: %v", ts, pos)
		}
	}
}

func TestWanderDeterministicPerSeed(t *testing.T) {
	h := floorplan.House()
	room, _ := h.Room("kitchen")
	a, err := NewWanderPath(room, DefaultSpeed, 10*time.Second, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWanderPath(room, DefaultSpeed, 10*time.Second, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for ts := time.Duration(0); ts <= a.Duration(); ts += time.Second {
		if a.At(ts) != b.At(ts) {
			t.Fatalf("same-seed wanders diverged at %v", ts)
		}
	}
}

func TestWanderRejectsBadSpeed(t *testing.T) {
	h := floorplan.House()
	room, _ := h.Room("living")
	if _, err := NewWanderPath(room, -1, time.Second, rng.New(1)); err == nil {
		t.Fatal("negative speed accepted")
	}
}

// TestWanderEndsInDegenerateRooms wanders rooms no 0.2 m leg fits in:
// a 0.15 m closet, and a zero-area sliver no rejection draw lands in.
// Both walks must end, and last at least the requested duration.
func TestWanderEndsInDegenerateRooms(t *testing.T) {
	for _, room := range []floorplan.Room{
		{Name: "closet", Poly: geom.Rect(0, 0, 0.15, 0.15)},
		{Name: "sliver", Poly: geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}}},
	} {
		done := make(chan *Path, 1)
		go func() {
			p, err := NewWanderPath(room, DefaultSpeed, 9*time.Second, rng.New(1))
			if err != nil {
				t.Error(err)
			}
			done <- p
		}()
		select {
		case p := <-done:
			if p != nil && p.Duration() < 9*time.Second {
				t.Errorf("%s: wander lasts %v, want at least 9s", room.Name, p.Duration())
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: NewWanderPath did not return within 3 s", room.Name)
		}
	}
}

func TestWanderMovesAround(t *testing.T) {
	h := floorplan.House()
	room, _ := h.Room("living")
	p, err := NewWanderPath(room, DefaultSpeed, time.Minute, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Over a minute of wandering the person should visit clearly
	// distinct points.
	a := p.At(0)
	moved := false
	for ts := time.Second; ts <= p.Duration(); ts += time.Second {
		if p.At(ts).At.Dist(a.At) > 1.0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("wander never moved more than 1 m")
	}
}

func TestSampleIntoMatchesAt(t *testing.T) {
	plan := floorplan.House()
	for name, route := range plan.Routes {
		path, err := NewRoutePath(route, DefaultSpeed)
		if err != nil {
			t.Fatalf("route %s: %v", name, err)
		}
		for _, offset := range []time.Duration{0, 700 * time.Millisecond, -time.Second} {
			out := make([]floorplan.Position, 40)
			path.SampleInto(offset, 200*time.Millisecond, out)
			for i, got := range out {
				want := path.At(offset + time.Duration(i)*200*time.Millisecond)
				if got != want {
					t.Fatalf("route %s offset %v sample %d: SampleInto %+v != At %+v", name, offset, i, got, want)
				}
			}
		}
	}
}

func TestSampleIntoPastEnd(t *testing.T) {
	plan := floorplan.House()
	path, err := NewRoutePath(plan.Routes["up"], DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]floorplan.Position, 10)
	path.SampleInto(path.Duration(), time.Second, out)
	for i, got := range out {
		if got != path.End() {
			t.Fatalf("sample %d past end: %+v != End %+v", i, got, path.End())
		}
	}
}
