package push

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
)

// The devices map used to be unsynchronized, so concurrent
// Register/RequestWith corrupted it (and the event-heap scheduling
// underneath). This test hammers the broker's public API from many
// goroutines — run with -race — then drains the clock on the single
// simulation thread, as the simulation contract requires.
func TestBrokerConcurrentAccess(t *testing.T) {
	f := setup(t)
	model := radio.NewModel(f.plan, radio.DefaultParams(), 1)
	pos := floorplan.Position{Floor: 0, At: geom.Point{X: 4, Y: 3}}

	const workers, rounds = 8, 50
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		replies = map[string]int{}
	)
	deliver := func(r Reply) {
		mu.Lock()
		replies[r.DeviceID]++
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rng.New(int64(100 + w))
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("dev-%d-%d", w, i)
				if err := f.broker.Register(&Device{
					ID:       id,
					Scanner:  ble.NewScanner(model, radio.Pixel5, src.Split(id)),
					Position: func() floorplan.Position { return pos },
				}); err != nil {
					t.Error(err)
					return
				}
				if err := f.broker.RequestWith([]string{id, "pixel5"}, f.adv, deliver, RequestOpts{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	f.clock.Advance(time.Minute)
	if got := len(replies); got != workers*rounds+1 {
		t.Fatalf("%d devices replied, want %d", got, workers*rounds+1)
	}
	if got := replies["pixel5"]; got != workers*rounds {
		t.Fatalf("pixel5 replied %d times, want one per request (%d)", got, workers*rounds)
	}
}
