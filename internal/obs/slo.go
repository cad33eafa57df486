package obs

import (
	"fmt"
	"io"
	"slices"
	"time"

	"voiceguard/internal/metrics"
)

// SLOKind selects how an objective is evaluated against a snapshot.
type SLOKind int

const (
	// SLOLatency bounds a histogram family: the configured quantile
	// of all matching series must stay at or under Max. Compliance is
	// the fraction of observations in buckets whose upper bound is
	// within Max, so the error budget is 1-Quantile and the burn rate
	// falls out of the bucket counts directly.
	SLOLatency SLOKind = iota
	// SLOCeiling bounds a gauge: its value must stay at or under
	// Ceiling.
	SLOCeiling
)

func (k SLOKind) String() string {
	switch k {
	case SLOLatency:
		return "latency"
	case SLOCeiling:
		return "ceiling"
	}
	return "unknown"
}

// Objective is one declarative service-level objective.
type Objective struct {
	Name   string
	Kind   SLOKind
	Metric string // metric family

	// Labels (SLOLatency) filters which series of the family count:
	// every non-empty field must match. The zero filter aggregates the
	// whole family (flat series included).
	Labels metrics.Labels

	// Quantile (SLOLatency) is both the reported quantile and the
	// required fraction of observations within Max (default 0.99), so
	// the plain reading "p99 ≤ Max" holds exactly.
	Quantile float64
	Max      time.Duration // SLOLatency: bound observations must stay under

	Ceiling int64 // SLOCeiling: maximum gauge value
}

// SLOResult is one objective's evaluation.
type SLOResult struct {
	Objective  Objective
	Healthy    bool
	NoData     bool          // nothing matched; Healthy is vacuous
	Compliance float64       // fraction of observations within Max (latency)
	BurnRate   float64       // cumulative error-budget burn (latency; 1.0 = budget exactly spent)
	Quantile   time.Duration // measured quantile (latency)
	Value      float64       // measured value (ceiling)
	Count      uint64        // observations considered (latency)
}

// withDefaults fills the objective's defaulted fields.
func (o Objective) withDefaults() Objective {
	if o.Quantile <= 0 {
		o.Quantile = 0.99
	}
	return o
}

// mergeHistograms folds every series of the named family matching the
// filter into one snapshot (bucket-wise sums). Flat series carry the
// zero label set for matching purposes.
func mergeHistograms(s metrics.Snapshot, name string, filter metrics.Labels) metrics.HistogramSnapshot {
	merged := metrics.HistogramSnapshot{Name: name}
	for _, h := range s.Histograms {
		if h.Name != name {
			continue
		}
		var l metrics.Labels
		if h.Labels != nil {
			l = *h.Labels
		}
		if !l.Match(filter) {
			continue
		}
		if merged.Buckets == nil {
			merged.Buckets = make([]uint64, len(h.Buckets))
		}
		for i, c := range h.Buckets {
			merged.Buckets[i] += c
		}
		merged.Count += h.Count
		merged.SumSeconds += h.SumSeconds
	}
	return merged
}

// goodBad splits a merged histogram's observations at the objective's
// Max: buckets whose upper bound is within Max are good, everything
// past it (the straddling bucket included, overflow included) is bad.
func goodBad(merged metrics.HistogramSnapshot, max time.Duration) (good, bad uint64) {
	bounds := metrics.BucketBounds()
	for i, c := range merged.Buckets {
		if i < len(bounds) && bounds[i] <= max {
			good += c
		} else {
			bad += c
		}
	}
	return good, bad
}

// evaluateOne computes the cumulative result for one objective.
func evaluateOne(s metrics.Snapshot, o Objective) SLOResult {
	o = o.withDefaults()
	res := SLOResult{Objective: o, Healthy: true}
	switch o.Kind {
	case SLOLatency:
		merged := mergeHistograms(s, o.Metric, o.Labels)
		res.Count = merged.Count
		if merged.Count == 0 {
			res.NoData = true
			res.Compliance = 1
			return res
		}
		good, bad := goodBad(merged, o.Max)
		res.Compliance = float64(good) / float64(good+bad)
		res.BurnRate = (1 - res.Compliance) / (1 - o.Quantile)
		res.Quantile = merged.Quantile(o.Quantile)
		res.Healthy = res.Compliance >= o.Quantile
	case SLOCeiling:
		var v int64
		i := slices.IndexFunc(s.Gauges, func(g metrics.GaugeSnapshot) bool { return g.Name == o.Metric })
		if i >= 0 {
			v = s.Gauges[i].Value
		}
		res.Value = float64(v)
		res.NoData = i < 0
		res.Healthy = v <= o.Ceiling
	}
	return res
}

// Evaluate evaluates a set of objectives against a snapshot:
// cumulative compliance and burn since the snapshot's series began.
func Evaluate(s metrics.Snapshot, objectives []Objective) []SLOResult {
	out := make([]SLOResult, 0, len(objectives))
	for _, o := range objectives {
		out = append(out, evaluateOne(s, o))
	}
	return out
}

// WriteReport renders SLO results one per line, breaches first flag.
func WriteReport(w io.Writer, results []SLOResult) error {
	if len(results) == 0 {
		_, err := fmt.Fprintln(w, "(no objectives)")
		return err
	}
	for _, r := range results {
		status := "OK    "
		switch {
		case r.NoData:
			status = "NODATA"
		case !r.Healthy:
			status = "BREACH"
		}
		var detail string
		switch r.Objective.Kind {
		case SLOLatency:
			detail = fmt.Sprintf("p%g=%s (max %s) compliance=%.4f burn=%.2f",
				r.Objective.Quantile*100, r.Quantile, r.Objective.Max, r.Compliance, r.BurnRate)
		case SLOCeiling:
			detail = fmt.Sprintf("value=%.0f (ceiling %d)", r.Value, r.Objective.Ceiling)
		}
		if _, err := fmt.Fprintf(w, "[%s] %-28s %s\n", status, r.Objective.Name, detail); err != nil {
			return err
		}
	}
	return nil
}
