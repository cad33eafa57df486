// Package ble models the Bluetooth Low Energy measurement step: the
// smart speaker advertises periodically, and the owner's phone or
// watch scans for those advertisements to read the speaker's RSSI.
//
// The scan duration matters as much as the value — it is the dominant
// component of the RSSI-query delay distribution in Fig. 7 — so a
// Reading carries both.
package ble

import (
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
)

// Advertiser is the speaker's BLE beacon.
type Advertiser struct {
	Pos      floorplan.Position
	Interval time.Duration // advertising interval
}

// DefaultInterval is a typical smart-speaker advertising interval.
const DefaultInterval = 250 * time.Millisecond

// NewAdvertiser returns a beacon at the given position with the
// default advertising interval.
func NewAdvertiser(pos floorplan.Position) Advertiser {
	return Advertiser{Pos: pos, Interval: DefaultInterval}
}

// Reading is one completed RSSI measurement.
type Reading struct {
	RSSI     float64       // average over the collected packets
	Duration time.Duration // scan time from start to final packet
}

// packets is how many advertisements one measurement averages.
const packets = 3

// Scanner measures an advertiser's RSSI from a given position.
type Scanner struct {
	Model  *radio.Model
	Device radio.Device

	src *rng.Source
}

// NewScanner returns a scanner for the device on the given model.
func NewScanner(model *radio.Model, dev radio.Device, src *rng.Source) *Scanner {
	return &Scanner{Model: model, Device: dev, src: src}
}

// Measure scans for the advertiser from position at and returns the
// averaged RSSI reading with its wall-clock scan duration: a uniform
// wait for the first advertisement, then one interval per additional
// packet, plus a small processing overhead.
func (s *Scanner) Measure(adv Advertiser, at floorplan.Position) Reading {
	// The phone does not move between packets of one scan, so the
	// link mean is computed once for the whole burst (bit-identical
	// to per-packet sampling — see radio.SampleRepeat).
	var samples [packets]float64
	s.Model.SampleRepeat(adv.Pos, at, s.Device, s.src, samples[:])
	var sum float64
	for _, v := range samples {
		sum += v
	}

	firstWait := time.Duration(s.src.Uniform(0, float64(adv.Interval)))
	rest := time.Duration(packets-1) * adv.Interval
	processing := time.Duration(s.src.Uniform(20, 60)) * time.Millisecond

	return Reading{
		RSSI:     sum / packets,
		Duration: firstWait + rest + processing,
	}
}

// QuickFromMeans fills out with one single-packet RSSI sample per
// precomputed deterministic link mean (see radio.MeanBatch), with no
// duration accounting: the 0.2 s trace sampling of the floor-level
// experiments reads the most recent advertisement rather than
// starting a fresh multi-packet scan. Bit-identical to
// radio.SampleBatch over the positions the means were computed from:
// trace recording memoizes the means of a recurring path and draws
// only the per-recording noise here.
func (s *Scanner) QuickFromMeans(means []float64, out []float64) {
	s.Model.SampleFromMeans(means, s.Device, s.src, out)
}
