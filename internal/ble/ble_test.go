package ble

import (
	"testing"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/geom"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
)

func setup(t *testing.T) (*Scanner, Advertiser, floorplan.Position) {
	t.Helper()
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 1)
	spot, _ := plan.Spot("A")
	sc := NewScanner(model, radio.Pixel5, rng.New(42))
	return sc, NewAdvertiser(spot.Pos), floorplan.Position{Floor: 0, At: geom.Point{X: 4, Y: 3}}
}

// reference replays what Measure draws from a scanner seeded like
// setup's: packets noise draws of one link, then the first-wait and
// processing draws.
func reference(sc *Scanner, adv Advertiser, at floorplan.Position) (samples [packets]float64, firstWait, processing time.Duration) {
	src := rng.New(42)
	sc.Model.SampleRepeat(adv.Pos, at, sc.Device, src, samples[:])
	firstWait = time.Duration(src.Uniform(0, float64(adv.Interval)))
	processing = time.Duration(src.Uniform(20, 60)) * time.Millisecond
	return samples, firstWait, processing
}

func TestMeasureCollectsConfiguredPackets(t *testing.T) {
	sc, adv, at := setup(t)
	_, firstWait, processing := reference(sc, adv, at)
	if got, want := sc.Measure(adv, at).Duration, firstWait+2*adv.Interval+processing; got != want {
		t.Fatalf("duration = %v, want %v (three packets, two intervals apart)", got, want)
	}
}

func TestMeasureAveragesSamples(t *testing.T) {
	sc, adv, at := setup(t)
	samples, _, _ := reference(sc, adv, at)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	if got, want := sc.Measure(adv, at).RSSI, sum/float64(len(samples)); got != want {
		t.Fatalf("RSSI = %v, want mean of samples %v", got, want)
	}
}

func TestMeasureDurationWithinBounds(t *testing.T) {
	sc, adv, at := setup(t)
	for i := 0; i < 200; i++ {
		r := sc.Measure(adv, at)
		min := 2 * adv.Interval // (packets-1) intervals + >=0 first wait + >=20ms
		max := 3*adv.Interval + 60*time.Millisecond
		if r.Duration < min || r.Duration > max {
			t.Fatalf("duration %v outside [%v, %v]", r.Duration, min, max)
		}
	}
}

func TestMeasureDurationVaries(t *testing.T) {
	sc, adv, at := setup(t)
	first := sc.Measure(adv, at).Duration
	varies := false
	for i := 0; i < 20; i++ {
		if sc.Measure(adv, at).Duration != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("scan duration never varies")
	}
}

func TestQuickReflectsDistance(t *testing.T) {
	sc, adv, _ := setup(t)
	const n = 200
	positions := make([]floorplan.Position, 2*n)
	for i := 0; i < n; i++ {
		positions[i] = floorplan.Position{Floor: 0, At: geom.Point{X: 2.5, Y: 2.25}}
		positions[n+i] = floorplan.Position{Floor: 0, At: geom.Point{X: 11, Y: 9}}
	}
	means := make([]float64, len(positions))
	sc.Model.MeanBatch(adv.Pos, positions, means)
	out := make([]float64, len(positions))
	sc.QuickFromMeans(means, out)
	var nearSum, farSum float64
	for i := 0; i < n; i++ {
		nearSum += out[i]
		farSum += out[n+i]
	}
	if nearSum/n <= farSum/n {
		t.Fatalf("near average %.2f not above far average %.2f", nearSum/n, farSum/n)
	}
}
