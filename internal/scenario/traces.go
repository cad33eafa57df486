package scenario

import (
	"fmt"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/decision"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/mobility"
	"voiceguard/internal/parallel"
	"voiceguard/internal/radio"
	"voiceguard/internal/rng"
)

// TracePoint is one recorded stairway/route trace in feature space —
// a dot in a Fig. 10 scatter plot.
type TracePoint struct {
	Route string
	Class decision.TraceClass
	F     decision.Features
}

// Slope returns the fitted slope (total RSSI change over the trace).
func (p TracePoint) Slope() float64 { return p.F.Slope }

// Intercept returns the fitted y-intercept.
func (p TracePoint) Intercept() float64 { return p.F.Intercept }

// TraceStudy is one Fig. 10 case: the training scatter, the learned
// slope band, and hold-out classification accuracy at three feature
// depths.
type TraceStudy struct {
	Case   string
	Points []TracePoint
	BandLo float64
	BandHi float64

	Accuracy               float64 // full feature vector
	SlopeInterceptAccuracy float64 // the paper's two features
	SlopeOnlyAccuracy      float64 // ablation: slope alone
}

// traceCounts mirrors the paper's collection protocol: 15 Up, 15
// Down, 25 Route-1 (5 per room × 5 rooms), 10 Route-2, 10 Route-3.
var traceCounts = map[string]int{
	"up": 15, "down": 15, "route1": 25, "route2": 10, "route3": 10,
}

// StairTraceStudy reproduces one Fig. 10 case on the house testbed:
// collect the training traces, fit the classifier, and evaluate on a
// fresh set of traces of the same mix.
func StairTraceStudy(plan *floorplan.Plan, spotName, caseLabel string, dev radio.Device, seed int64) (*TraceStudy, error) {
	spot, ok := plan.Spot(spotName)
	if !ok {
		return nil, fmt.Errorf("scenario: plan %s has no spot %q", plan.Name, spotName)
	}
	if plan.Stairs == nil {
		return nil, fmt.Errorf("scenario: plan %s has no stairs", plan.Name)
	}
	model := radio.NewModel(plan, radio.DefaultParams(), seed)
	root := rng.New(seed)
	sc := ble.NewScanner(model, dev, root.Split("scan"))
	adv := ble.NewAdvertiser(spot.Pos)

	study := &TraceStudy{Case: caseLabel}

	collect := func(label string, n int, src *rng.Source) ([]TracePoint, error) {
		points := make([]TracePoint, 0, n)
		for i := 0; i < n; i++ {
			var (
				path *mobility.Path
				err  error
			)
			class := decision.TraceOther
			switch label {
			case "up":
				class = decision.TraceUp
				path, err = mobility.NewRoutePath(plan.Routes["up"], mobility.DefaultSpeed)
			case "down":
				class = decision.TraceDown
				path, err = mobility.NewRoutePath(plan.Routes["down"], mobility.DefaultSpeed)
			case "route2":
				path, err = mobility.NewRoutePath(plan.Routes["route2"], mobility.DefaultSpeed)
			case "route3":
				path, err = mobility.NewRoutePath(plan.Routes["route3"], mobility.DefaultSpeed)
			default: // route1: wander in a room with locations
				room := wanderRoom(plan, i)
				path, err = mobility.NewWanderPath(room, mobility.DefaultSpeed, 10*time.Second, src.SplitN("wander", i))
			}
			if err != nil {
				return nil, err
			}
			trace := decision.RecordTrace(sc, adv, path, 0)
			f, err := decision.ExtractFeatures(trace)
			if err != nil {
				return nil, err
			}
			points = append(points, TracePoint{Route: label, Class: class, F: f})
		}
		return points, nil
	}

	// Training scatter (the Fig. 10 dots).
	for _, label := range []string{"up", "down", "route1", "route2", "route3"} {
		pts, err := collect(label, traceCounts[label], root.Split("train-"+label))
		if err != nil {
			return nil, err
		}
		study.Points = append(study.Points, pts...)
	}

	samples := make([]decision.LabeledTrace, len(study.Points))
	for i, p := range study.Points {
		samples[i] = decision.LabeledTrace{Class: p.Class, F: p.F}
	}
	classifier, err := decision.TrainClassifier(samples)
	if err != nil {
		return nil, err
	}
	study.BandLo, study.BandHi = classifier.SlopeBand()

	// Hold-out evaluation.
	var total, correct, siCorrect, slopeCorrect int
	for _, label := range []string{"up", "down", "route1", "route2", "route3"} {
		pts, err := collect(label, traceCounts[label], root.Split("test-"+label))
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			total++
			if classifier.Classify(p.F) == p.Class {
				correct++
			}
			if classifier.ClassifySlopeIntercept(p.F.Slope, p.F.Intercept) == p.Class {
				siCorrect++
			}
			if classifier.ClassifySlopeOnly(p.F.Slope) == p.Class {
				slopeCorrect++
			}
		}
	}
	study.Accuracy = float64(correct) / float64(total)
	study.SlopeInterceptAccuracy = float64(siCorrect) / float64(total)
	study.SlopeOnlyAccuracy = float64(slopeCorrect) / float64(total)
	return study, nil
}

// wanderRoom cycles through the plan's rooms that hold measurement
// locations (5 Route-1 traces per room).
func wanderRoom(plan *floorplan.Plan, i int) floorplan.Room {
	var rooms []floorplan.Room
	for _, room := range plan.Rooms {
		if len(plan.LocationsInRoom(room.Name)) > 0 {
			rooms = append(rooms, room)
		}
	}
	return rooms[(i/5)%len(rooms)]
}

// Fig10Cases runs the four published cases: two speakers × two
// deployment locations in the house, measured with the Pixel 5.
//
// Each case records its traces with its own seed, scanner, and model,
// so the cases fan out across the parallel worker pool (the plan is
// immutable and read-safe); results are identical to a
// serial run. Within one case the trace collection stays serial — all
// traces of a case draw from a single scanner stream whose
// interleaving is part of the seeded record.
func Fig10Cases(seed int64) ([]*TraceStudy, error) {
	plan := floorplan.House()
	cases := []struct {
		label string
		spot  string
	}{
		{label: "Echo Dot @ 1st location", spot: "A"},
		{label: "Echo Dot @ 2nd location", spot: "B"},
		{label: "Google Home Mini @ 1st location", spot: "A"},
		{label: "Google Home Mini @ 2nd location", spot: "B"},
	}
	return parallel.MapErr(len(cases), func(i int) (*TraceStudy, error) {
		return StairTraceStudy(plan, cases[i].spot, cases[i].label, radio.Pixel5, seed+int64(i))
	})
}
