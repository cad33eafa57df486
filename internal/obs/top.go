package obs

import (
	"fmt"
	"io"
	"sort"

	"voiceguard/internal/metrics"
)

// sparkRunes are the eight-level bar glyphs for bucket sparklines.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders bucket counts as one rune per bucket, scaled to
// the fullest bucket. Empty buckets render as spaces so the latency
// mass's position on the scale is visible at a glance.
func sparkline(buckets []uint64) string {
	var max uint64
	for _, c := range buckets {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	out := make([]rune, len(buckets))
	for i, c := range buckets {
		if c == 0 {
			out[i] = ' '
			continue
		}
		idx := int(uint64(len(sparkRunes)-1) * c / max)
		out[i] = sparkRunes[idx]
	}
	return string(out)
}

// TopView is everything one vgtop frame renders.
type TopView struct {
	Snapshot  metrics.Snapshot
	SLO       []SLOResult
	Anomalies []string // most recent last; rendered tail-first
	TopK      int      // rows per section (0 = default 8)
}

// WriteTop renders one live-view frame: runtime health, SLO status,
// per-label top-K counter and gauge tables, sparkline histograms, and
// the active anomaly tail. The layout is plain text so it works in
// any terminal and in tests.
func WriteTop(w io.Writer, v TopView) error {
	k := v.TopK
	if k <= 0 {
		k = 8
	}
	s := v.Snapshot

	// Runtime header, when the collector's gauges are present.
	var goroutines, heap int64
	var haveRuntime bool
	for _, g := range s.Gauges {
		switch g.Name {
		case MetricGoroutines:
			goroutines, haveRuntime = g.Value, true
		case MetricHeapBytes:
			heap = g.Value
		}
	}
	if haveRuntime {
		if _, err := fmt.Fprintf(w, "runtime: goroutines=%d heap=%.1fMiB", goroutines, float64(heap)/(1<<20)); err != nil {
			return err
		}
		for _, h := range s.Histograms {
			if h.Name == MetricGCPause && h.Count > 0 {
				fmt.Fprintf(w, " gc_pause_p99=%s", h.Quantile(0.99))
			}
			if h.Name == MetricSchedLatency && h.Count > 0 {
				fmt.Fprintf(w, " sched_p99=%s", h.Quantile(0.99))
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}

	if len(v.SLO) > 0 {
		fmt.Fprintln(w, "\n== slo ==")
		if err := WriteReport(w, v.SLO); err != nil {
			return err
		}
	}

	// Fleet-aggregate view: with two or more labeled homes in the
	// snapshot the per-family tables below would interleave every
	// tenant's series, so rank homes first.
	if err := writeFleet(w, FleetSummary(s), k); err != nil {
		return err
	}

	type row struct {
		name  string
		value int64
	}
	topRows := func(rows []row) []row {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].value > rows[j].value })
		if len(rows) > k {
			rows = rows[:k]
		}
		return rows
	}

	counters := make([]row, 0, len(s.Counters))
	for _, c := range s.Counters {
		if c.Value != 0 {
			counters = append(counters, row{c.Name + labelSuffix(c.Labels), c.Value})
		}
	}
	if rows := topRows(counters); len(rows) > 0 {
		fmt.Fprintln(w, "\n== top counters ==")
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "%-52s %d\n", r.name, r.value); err != nil {
				return err
			}
		}
	}

	gauges := make([]row, 0, len(s.Gauges))
	for _, g := range s.Gauges {
		if g.Value != 0 && g.Name != MetricGoroutines && g.Name != MetricHeapBytes {
			gauges = append(gauges, row{g.Name, g.Value})
		}
	}
	if rows := topRows(gauges); len(rows) > 0 {
		fmt.Fprintln(w, "\n== gauges ==")
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "%-52s %d\n", r.name, r.value); err != nil {
				return err
			}
		}
	}

	type hrow struct {
		snap metrics.HistogramSnapshot
	}
	hists := make([]hrow, 0, len(s.Histograms))
	for _, h := range s.Histograms {
		if h.Count > 0 && h.Name != MetricGCPause && h.Name != MetricSchedLatency {
			hists = append(hists, hrow{h})
		}
	}
	sort.SliceStable(hists, func(i, j int) bool { return hists[i].snap.Count > hists[j].snap.Count })
	if len(hists) > k {
		hists = hists[:k]
	}
	if len(hists) > 0 {
		fmt.Fprintln(w, "\n== histograms ==")
		for _, h := range hists {
			ex := exemplarNote(h.snap)
			if _, err := fmt.Fprintf(w, "%-52s n=%-8d p50≤%-10s p99≤%-10s |%s|%s\n",
				h.snap.Name+labelSuffix(h.snap.Labels), h.snap.Count,
				h.snap.Quantile(0.50), h.snap.Quantile(0.99),
				sparkline(h.snap.Buckets), ex); err != nil {
				return err
			}
		}
	}

	if len(v.Anomalies) > 0 {
		fmt.Fprintln(w, "\n== anomalies ==")
		tail := v.Anomalies
		if len(tail) > k {
			tail = tail[len(tail)-k:]
		}
		for _, a := range tail {
			if _, err := fmt.Fprintf(w, "%s\n", a); err != nil {
				return err
			}
		}
	}
	return nil
}

// exemplarNote points at the slowest bucket that retains an exemplar:
// the command ID to chase in the trace export when the tail looks bad.
func exemplarNote(h metrics.HistogramSnapshot) string {
	if h.Exemplars == nil {
		return ""
	}
	bounds := metrics.BucketBounds()
	for i := len(h.Exemplars) - 1; i >= 0; i-- {
		if h.Exemplars[i] == 0 {
			continue
		}
		bound := "+Inf"
		if i < len(bounds) {
			bound = bounds[i].String()
		}
		return fmt.Sprintf(" exemplar cmd=%d (≤%s)", h.Exemplars[i], bound)
	}
	return ""
}

// labelSuffix renders a snapshot entry's label set for table rows.
func labelSuffix(l *metrics.Labels) string {
	if l == nil {
		return ""
	}
	return l.String()
}
