// Package stats provides the statistics used across the evaluation:
// least-squares linear regression (the floor-level trace classifier of
// Fig. 10 fits a line to 40 RSSI samples), binary-classification
// confusion matrices (Tables I-IV), and summary statistics and
// histograms (Fig. 7's delay distributions).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more points
// than were supplied.
var ErrInsufficientData = errors.New("stats: insufficient data")

// lengthMismatch reports x and y samples of different lengths; the
// message is formatted only when it is read.
type lengthMismatch struct{ xs, ys int }

func (e lengthMismatch) Error() string {
	return fmt.Sprintf("stats: mismatched lengths %d and %d", e.xs, e.ys)
}

// LinearFit fits y = slope*x + intercept by ordinary least squares.
// It requires at least two points with non-zero x variance.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, lengthMismatch{len(xs), len(ys)}
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0, 0, ErrInsufficientData
	}
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/n, sumY/n
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - meanX
		sxx += dx * dx
		sxy += dx * (ys[i] - meanY)
	}
	if sxx == 0 {
		return 0, 0, ErrInsufficientData
	}
	slope = sxy / sxx
	intercept = meanY - slope*meanX
	return slope, intercept, nil
}

// Confusion is a binary-classification confusion matrix. Following
// the paper's convention, a malicious command is the Positive class.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one observation: actual is the ground-truth class,
// predicted the classifier's output (true = positive).
func (c *Confusion) Add(actual, predicted bool) {
	switch {
	case actual && predicted:
		c.TP++
	case actual && !predicted:
		c.FN++
	case !actual && predicted:
		c.FP++
	default:
		c.TN++
	}
}

// Merge adds another confusion matrix's counts into c.
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Total returns the number of recorded observations.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted
// positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there were no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.2f%% prec=%.2f%% rec=%.2f%%",
		c.TP, c.FP, c.TN, c.FN, 100*c.Accuracy(), 100*c.Precision(), 100*c.Recall())
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the minimum of xs; it panics on empty input.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on empty input.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between order statistics. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FractionBelow returns the fraction of xs strictly below limit.
func FractionBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary bundles the descriptive statistics reported for delay
// distributions.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Summarize computes a Summary of xs. A zero Summary is returned for
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  Std(xs),
		Min:  Min(xs),
		Max:  Max(xs),
		P50:  Percentile(xs, 50),
		P90:  Percentile(xs, 90),
		P99:  Percentile(xs, 99),
	}
}

// Histogram counts xs into equal-width bins over [lo, hi). Values
// outside the range are clamped into the first or last bin.
func Histogram(xs []float64, lo, hi float64, bins int) []int {
	counts := make([]int, bins)
	if bins == 0 || hi <= lo {
		return counts
	}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return counts
}
