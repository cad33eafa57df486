// Package radio models indoor Bluetooth signal propagation between a
// smart speaker and the owner's phone or watch.
//
// The paper reports RSSI on a compressed scale (roughly 0 dB next to
// the speaker down to about -20 dB across the house, with room
// thresholds around -5…-8 dB). The model reproduces that scale with a
// log-distance path-loss term, per-wall attenuation taken from the
// floor plan, a floor-penetration term that grows with horizontal
// offset (so the spot directly above the speaker "bleeds through" —
// the paper's locations #55/#56/#59-#62), static log-normal shadowing,
// and per-measurement noise including a body-orientation component
// (the paper measures four orientations per location).
package radio

import (
	"math"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/rng"
)

// Params configures the propagation model.
type Params struct {
	RefRSSI     float64 // RSSI at RefDist (dB, paper scale)
	RefDist     float64 // reference distance (m)
	PathLossExp float64 // log-distance path-loss exponent

	FloorLoss      float64 // base penetration loss per floor crossed (dB)
	FloorObliquity float64 // extra floor loss per metre of horizontal offset
	ObliquityCap   float64 // horizontal metres beyond which the obliquity term saturates

	ShadowSigma  float64 // static per-link shadowing std-dev (dB)
	NoiseSigma   float64 // per-measurement noise std-dev (dB)
	OrientSpread float64 // body-orientation effect, uniform in ±OrientSpread (dB)

	SpeakerHeight float64 // speaker antenna height above its floor (m)
	DeviceHeight  float64 // phone/watch height above its floor (m)
}

// DefaultParams returns the calibration used throughout the
// reproduction. See DESIGN.md for the derivation against Figures 8/9.
func DefaultParams() Params {
	return Params{
		RefRSSI:        0,
		RefDist:        0.5,
		PathLossExp:    0.8,
		FloorLoss:      0.5,
		FloorObliquity: 0.45,
		ObliquityCap:   3.0,
		ShadowSigma:    0.2,
		NoiseSigma:     0.3,
		OrientSpread:   0.5,
		SpeakerHeight:  0.8,
		DeviceHeight:   1.0,
	}
}

// Device is a receiving device profile. RxOffset shifts all
// measurements (antenna/chipset differences); NoiseScale multiplies
// the per-measurement noise (a wrist-worn watch is noisier than a
// phone).
type Device struct {
	Name       string
	RxOffset   float64
	NoiseScale float64
}

// The devices used in the paper's evaluation.
var (
	Pixel5       = Device{Name: "Pixel 5", RxOffset: 0, NoiseScale: 1.0}
	Pixel4a      = Device{Name: "Pixel 4a", RxOffset: -0.4, NoiseScale: 1.1}
	GalaxyWatch4 = Device{Name: "Galaxy Watch4", RxOffset: -0.8, NoiseScale: 1.3}
)

// Model computes RSSI between positions on a floor plan.
//
// A Model is safe for concurrent use: it is immutable after
// construction and derives every shadow value from its seed, so one
// model can back many parallel trials. The rng.Source arguments of
// Sample/SampleN/AverageAt are NOT safe to share — each concurrent
// caller must bring its own split stream.
type Model struct {
	plan   *floorplan.Plan
	params Params
	shadow *rng.Source
}

// NewModel returns a propagation model for the plan. The seed fixes
// the static shadowing field; two models with the same plan, params,
// and seed agree exactly.
func NewModel(plan *floorplan.Plan, params Params, seed int64) *Model {
	return &Model{
		plan:   plan,
		params: params,
		shadow: rng.New(seed).Split("radio-shadow"),
	}
}

// Plan returns the floor plan the model was built on.
func (m *Model) Plan() *floorplan.Plan { return m.plan }

// ModelIdent is a comparable value identifying everything a Model's
// deterministic field (Mean) depends on: the plan instance, the
// parameters, and the shadow-stream seed. Two models with equal
// ModelIdent return identical Mean for every link, so ModelIdent is a
// valid memoization key for derived deterministic quantities.
type ModelIdent struct {
	plan   *floorplan.Plan
	params Params
	seed   int64
}

// Ident returns the model's deterministic-field identity.
func (m *Model) Ident() ModelIdent {
	return ModelIdent{plan: m.plan, params: m.params, seed: m.shadow.Seed()}
}

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.params }

// PathRSSI returns the deterministic component of the RSSI between a
// transmitter (speaker) and receiver (phone/watch) position: path
// loss, wall loss, and floor-penetration loss, with no shadowing and
// no noise.
func (m *Model) PathRSSI(tx, rx floorplan.Position) float64 {
	p := m.params

	dh := tx.At.Dist(rx.At)
	floors := rx.Floor - tx.Floor
	if floors < 0 {
		floors = -floors
	}
	dz := float64(rx.Floor-tx.Floor)*m.plan.FloorHeight + p.DeviceHeight - p.SpeakerHeight
	d := math.Hypot(dh, dz)
	if d < p.RefDist {
		d = p.RefDist
	}

	rssi := p.RefRSSI - 10*p.PathLossExp*math.Log10(d/p.RefDist)

	wallLoss, _ := m.plan.WallLoss(tx, rx)
	rssi -= wallLoss

	if floors > 0 {
		// The obliquity term grows with horizontal offset (straight
		// through the slab is the cheapest path) but saturates: once
		// the path is oblique, extra horizontal distance is already
		// billed by the log-distance term.
		effDH := dh
		if p.ObliquityCap > 0 && effDH > p.ObliquityCap {
			effDH = p.ObliquityCap
		}
		rssi -= p.FloorLoss * float64(floors) * (1 + p.FloorObliquity*effDH)
	}
	return rssi
}

// Mean returns the expected RSSI of the link: PathRSSI plus the static
// shadowing of the receiver's location cell. Mean is deterministic for
// a given model seed.
func (m *Model) Mean(tx, rx floorplan.Position) float64 {
	return m.PathRSSI(tx, rx) + m.shadowAt(tx, rx)
}

// shadowAt returns the static shadowing (dB) for the link, keyed by
// the transmitter position (to 0.1 m) and the receiver's 0.5 m grid
// cell so that nearby receiver positions share a shadow value (spatial
// coherence for walking traces). The value is derived afresh on every
// call: the first normal draw of the shadow stream's child keyed by
// the quantized link, scaled by the shadowing std-dev.
func (m *Model) shadowAt(tx, rx floorplan.Position) float64 {
	if m.params.ShadowSigma == 0 {
		return 0
	}
	return m.params.ShadowSigma * m.shadow.KeyedNormal(
		uint64(tx.Floor),
		uint64(int64(math.Round(10*tx.At.X))),
		uint64(int64(math.Round(10*tx.At.Y))),
		uint64(rx.Floor),
		uint64(int64(math.Floor(2*rx.At.X))),
		uint64(int64(math.Floor(2*rx.At.Y))),
	)
}

// Measurement is a single RSSI reading.
type Measurement struct {
	RSSI float64
}

// Sample draws one RSSI measurement for the link as seen by dev,
// using src for the measurement noise and body-orientation effect.
func (m *Model) Sample(tx, rx floorplan.Position, dev Device, src *rng.Source) float64 {
	p := m.params
	v := m.Mean(tx, rx) + dev.RxOffset
	v += src.Uniform(-p.OrientSpread, p.OrientSpread)
	v += src.Normal(0, p.NoiseSigma*dev.NoiseScale)
	return v
}

// SampleN draws n measurements for the link.
func (m *Model) SampleN(tx, rx floorplan.Position, dev Device, src *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.Sample(tx, rx, dev, src)
	}
	return out
}

// AverageAt reproduces the paper's per-location measurement protocol:
// 4 measurements in each of the 4 body orientations (16 total),
// averaged. The orientation effect is drawn once per orientation.
func (m *Model) AverageAt(tx, rx floorplan.Position, dev Device, src *rng.Source) float64 {
	p := m.params
	base := m.Mean(tx, rx) + dev.RxOffset
	var sum float64
	const orientations, perOrientation = 4, 4
	for o := 0; o < orientations; o++ {
		orient := src.Uniform(-p.OrientSpread, p.OrientSpread)
		for k := 0; k < perOrientation; k++ {
			sum += base + orient + src.Normal(0, p.NoiseSigma*dev.NoiseScale)
		}
	}
	return sum / (orientations * perOrientation)
}
