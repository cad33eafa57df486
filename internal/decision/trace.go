package decision

import (
	"fmt"
	"math"
	"slices"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/mobility"
	"voiceguard/internal/stats"
)

// Trace recording parameters (§V-B2): on a stairway motion event the
// owner's phone records the speaker's RSSI every 0.2 s for 8 s,
// yielding 40 samples.
const (
	TraceSamples  = 40
	TraceInterval = 200 * time.Millisecond
)

// TraceClass labels a stairway RSSI trace.
type TraceClass int

// Trace classes. Routes 1-3 are the paper's confusable in-floor
// walks; the classifier maps them to TraceOther.
const (
	TraceOther TraceClass = iota
	TraceUp
	TraceDown
)

// String names the class.
func (c TraceClass) String() string {
	switch c {
	case TraceUp:
		return "up"
	case TraceDown:
		return "down"
	default:
		return "other"
	}
}

// Features are the per-trace classification features. The paper uses
// the slope and y-intercept of the least-squares line (x is
// normalised trace progress in [0, 1], so the slope is the total RSSI
// change over the trace). This reproduction adds the fit residual
// (RMSE): its simulated environment has stronger doorway shadowing
// than the paper's testbeds, and the residual separates the smooth
// monotone stair walks from shadow-step wandering. The 2-feature
// paper method remains available as ClassifySlopeIntercept and is
// quantified in the ablation benches.
type Features struct {
	Slope     float64
	Intercept float64
	Residual  float64
}

// RecordTrace samples the speaker's RSSI along a movement path:
// TraceSamples readings, TraceInterval apart, starting at the path
// offset. This mirrors the phone app's recording loop after a motion
// event. The deterministic half of the trace (path positions, path
// loss, walls, shadowing) is served by the trace-mean memo — recurring
// paths compute it once — and only the per-recording measurement
// noise is drawn here, bit-identical to the per-sample loop it
// replaces.
func RecordTrace(sc *ble.Scanner, adv ble.Advertiser, path *mobility.Path, offset time.Duration) []float64 {
	trace := new([TraceSamples]float64)
	RecordTraceInto(trace, sc, adv, path, offset)
	return trace[:]
}

// RecordTraceInto is RecordTrace into a caller-owned buffer, so a
// phone that records a trace on every motion event reuses one.
func RecordTraceInto(trace *[TraceSamples]float64, sc *ble.Scanner, adv ble.Advertiser, path *mobility.Path, offset time.Duration) {
	means := traceMeanVector(sc, adv, path, offset, TraceInterval, TraceSamples)
	sc.QuickFromMeans(means, trace[:])
}

// traceXs are the fit's x values for a trace of TraceSamples
// readings, computed by ExtractFeatures' own formula.
var traceXs = func() (xs [TraceSamples]float64) {
	for i := range xs {
		xs[i] = float64(i) / float64(TraceSamples-1)
	}
	return xs
}()

// shortTraceError reports a trace too short to fit a line to; it
// holds the trace's length.
type shortTraceError int

func (n shortTraceError) Error() string {
	return fmt.Sprintf("decision: trace needs at least 2 samples, got %d", int(n))
}

// ExtractFeatures fits a line to the trace and returns the full
// feature vector.
func ExtractFeatures(trace []float64) (Features, error) {
	if len(trace) < 2 {
		return Features{}, shortTraceError(len(trace))
	}
	xs := traceXs[:]
	if len(trace) != TraceSamples {
		xs = make([]float64, len(trace))
		for i := range xs {
			xs[i] = float64(i) / float64(len(trace)-1)
		}
	}
	slope, intercept, err := stats.LinearFit(xs, trace)
	if err != nil {
		return Features{}, err
	}
	var ss float64
	for i := range trace {
		d := trace[i] - (slope*xs[i] + intercept)
		ss += d * d
	}
	return Features{
		Slope:     slope,
		Intercept: intercept,
		Residual:  math.Sqrt(ss / float64(len(trace))),
	}, nil
}

// TraceFeatures returns the paper's two features (slope and
// y-intercept) of the fitted line.
func TraceFeatures(trace []float64) (slope, intercept float64, err error) {
	f, err := ExtractFeatures(trace)
	if err != nil {
		return 0, 0, err
	}
	return f.Slope, f.Intercept, nil
}

// LabeledTrace is a training example for the trace classifier.
type LabeledTrace struct {
	Class TraceClass
	F     Features
}

// FeaturesOf builds a LabeledTrace from raw samples.
func FeaturesOf(class TraceClass, trace []float64) (LabeledTrace, error) {
	f, err := ExtractFeatures(trace)
	if err != nil {
		return LabeledTrace{}, err
	}
	return LabeledTrace{Class: class, F: f}, nil
}

// TraceClassifier implements a two-stage procedure following §V-B2: a
// slope band (learned from the Other traces) catches in-room
// movement; traces with steeper slopes are separated from the
// confusable routes by k-nearest-neighbour matching on the
// standardised feature vector.
type TraceClassifier struct {
	slopeLo, slopeHi float64 // the "Other" slope band

	refs  []LabeledTrace // k-NN reference set (all training points)
	scale [3]float64     // feature standardisation divisors
}

// knnK is the neighbourhood size for steep-trace disambiguation, and
// knnStairVotes the supermajority a stair classification requires.
// The asymmetry is deliberate: genuine stair walks sit in tight,
// well-separated clusters, while drifting in-room walks scatter — so
// demanding a supermajority suppresses spurious floor changes without
// missing real ones.
const (
	knnK          = 5
	knnStairVotes = 4
)

// TrainClassifier learns the slope band and the steep-trace
// neighbourhood from labeled traces. Training requires Up, Down, and
// Other examples.
func TrainClassifier(samples []LabeledTrace) (*TraceClassifier, error) {
	var (
		nUp, nDown, nOther int
		stairAbsMin        = math.Inf(1)
	)
	for _, s := range samples {
		switch s.Class {
		case TraceUp:
			nUp++
		case TraceDown:
			nDown++
		default:
			nOther++
		}
		if s.Class == TraceUp || s.Class == TraceDown {
			if a := math.Abs(s.F.Slope); a < stairAbsMin {
				stairAbsMin = a
			}
		}
	}
	if nUp == 0 || nDown == 0 || nOther == 0 {
		return nil, fmt.Errorf("decision: training needs up, down, and other traces (got %d/%d/%d)",
			nUp, nDown, nOther)
	}

	// Other traces flatter than every stair trace define the band.
	var flatAbsMax float64
	for _, s := range samples {
		if s.Class == TraceOther && math.Abs(s.F.Slope) < stairAbsMin {
			if a := math.Abs(s.F.Slope); a > flatAbsMax {
				flatAbsMax = a
			}
		}
	}

	// The band boundary sits halfway between the flattest stair trace
	// and the steepest flat in-room trace.
	boundary := (flatAbsMax + stairAbsMin) / 2
	if boundary <= 0 || math.IsInf(boundary, 1) {
		boundary = stairAbsMin / 2
	}

	// Every training trace joins the k-NN reference set: flat Other
	// traces contribute density near drifting in-room walks whose
	// slopes leak past the band.
	return &TraceClassifier{
		slopeLo: -boundary,
		slopeHi: boundary,
		refs:    append([]LabeledTrace(nil), samples...),
		scale:   featureScale(samples),
	}, nil
}

// SlopeBand returns the learned Other-traffic slope band.
func (c *TraceClassifier) SlopeBand() (lo, hi float64) { return c.slopeLo, c.slopeHi }

// Classify labels a trace by its full feature vector.
func (c *TraceClassifier) Classify(f Features) TraceClass {
	return c.classify(f, 3)
}

// ClassifySlopeIntercept is the paper's exact two-feature method —
// kept for the ablation benches.
func (c *TraceClassifier) ClassifySlopeIntercept(slope, intercept float64) TraceClass {
	return c.classify(Features{Slope: slope, Intercept: intercept}, 2)
}

// knnCand is one same-sign training trace at its distance from the
// trace being classified.
type knnCand struct {
	d     float64
	class TraceClass
}

// knnStackCands sizes classify's on-stack candidate buffer; it covers
// the reference sets the scenarios train (about a hundred traces), and
// a larger one spills to the heap.
const knnStackCands = 256

// classify runs the band check and the k-NN vote over the first dims
// features.
func (c *TraceClassifier) classify(f Features, dims int) TraceClass {
	if f.Slope > c.slopeLo && f.Slope < c.slopeHi {
		return TraceOther
	}
	// Majority vote among the k nearest steep training traces with a
	// matching slope sign: an Up trace can only be confused with
	// other RSSI-decreasing walks.
	var buf [knnStackCands]knnCand
	cands := buf[:0]
	for _, s := range c.refs {
		if (f.Slope < 0) != (s.F.Slope < 0) {
			continue
		}
		cands = append(cands, knnCand{d: c.dist(f, s.F, dims), class: s.Class})
	}
	if len(cands) == 0 {
		// No same-sign training data: fall back to the slope sign.
		if f.Slope < 0 {
			return TraceUp
		}
		return TraceDown
	}
	// The same pattern-defeating quicksort as sort.Slice with a
	// "d_i < d_j" less, so equal distances come out in the same order.
	slices.SortFunc(cands, func(a, b knnCand) int {
		switch {
		case a.d < b.d:
			return -1
		case b.d < a.d:
			return 1
		}
		return 0
	})
	k := min(knnK, len(cands))
	var up, down int
	for _, cd := range cands[:k] {
		switch cd.class {
		case TraceUp:
			up++
		case TraceDown:
			down++
		}
	}
	need := min(knnStairVotes, k)
	if up >= need {
		return TraceUp
	}
	if down >= need {
		return TraceDown
	}
	return TraceOther
}

// ClassifySlopeOnly ignores everything but the slope — the ablation
// showing why the paper needs the y-intercept.
func (c *TraceClassifier) ClassifySlopeOnly(slope float64) TraceClass {
	switch {
	case slope > c.slopeLo && slope < c.slopeHi:
		return TraceOther
	case slope < 0:
		return TraceUp
	default:
		return TraceDown
	}
}

// dist is the standardised Euclidean distance over the first dims
// features.
func (c *TraceClassifier) dist(a, b Features, dims int) float64 {
	av := [3]float64{a.Slope, a.Intercept, a.Residual}
	bv := [3]float64{b.Slope, b.Intercept, b.Residual}
	var ss float64
	for i := 0; i < dims; i++ {
		d := (av[i] - bv[i]) / c.scale[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// featureScale returns per-feature standard deviations (floored to
// avoid division by zero) over all samples.
func featureScale(samples []LabeledTrace) [3]float64 {
	var cols [3][]float64
	for _, s := range samples {
		cols[0] = append(cols[0], s.F.Slope)
		cols[1] = append(cols[1], s.F.Intercept)
		cols[2] = append(cols[2], s.F.Residual)
	}
	var sd [3]float64
	for i := range sd {
		sd[i] = stats.Std(cols[i])
		if sd[i] < 1e-6 {
			sd[i] = 1
		}
	}
	return sd
}
