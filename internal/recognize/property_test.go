package recognize

import (
	"testing"
	"testing/quick"

	"voiceguard/internal/trafficgen"
)

// markerFree maps arbitrary bytes onto lengths that contain none of
// the Echo Dot's phase markers and cannot form a fallback pattern.
var markerFreeLens = []int{46, 58, 90, 101, 162, 210, 350, 520, 700, 850, 1100}

func TestClassifierNeverCallsMarkerFreeSpikesCommands(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		lengths := make([]int, len(raw))
		for i, r := range raw {
			lengths[i] = markerFreeLens[int(r)%len(markerFreeLens)]
		}
		return classify(t, lengths) != ActionCommand
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifierAlwaysFindsEarlyMarker(t *testing.T) {
	// A p-138 or p-75 anywhere in the first five positions makes the
	// spike a command, regardless of surrounding lengths — unless the
	// response markers appear adjacently first.
	f := func(raw []uint8, pos uint8, which bool) bool {
		lengths := make([]int, 8)
		for i := range lengths {
			v := 90
			if i < len(raw) {
				v = markerFreeLens[int(raw[i])%len(markerFreeLens)]
			}
			lengths[i] = v
		}
		marker := trafficgen.P138
		if which {
			marker = trafficgen.P75
		}
		lengths[int(pos)%5] = marker
		return classify(t, lengths) == ActionCommand
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifierDecisionIsPrefixStable(t *testing.T) {
	// Appending packets beyond the classification window never
	// changes a command verdict: the decision depends only on the
	// first five lengths.
	f := func(raw []uint8, extra []uint8) bool {
		if len(raw) < 7 {
			return true
		}
		head := make([]int, 7)
		for i := range head {
			head[i] = markerFreeLens[int(raw[i])%len(markerFreeLens)]
		}
		head[2] = trafficgen.P138 // force a command
		base := classify(t, head)

		extended := append([]int(nil), head...)
		for _, e := range extra {
			extended = append(extended, markerFreeLens[int(e)%len(markerFreeLens)])
		}
		return classify(t, extended) == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
