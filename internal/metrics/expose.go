package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ContentTypeText is the Content-Type of the Prometheus-style text
// exposition (version parameter included per the exposition spec).
const ContentTypeText = "text/plain; version=0.0.4; charset=utf-8"

// ContentTypeJSON is the Content-Type of the JSON exposition.
const ContentTypeJSON = "application/json; charset=utf-8"

// WriteText writes the snapshot in a Prometheus-style text format:
// one `name{labels} value` line per counter and gauge series, and
// cumulative `name_bucket{...,le="..."}` lines plus `_sum`/`_count`
// per histogram. A family's `# TYPE` comment is emitted once, before
// its first series; the snapshot's (name, label set) order makes the
// output deterministic. Exemplars are JSON-only.
func WriteText(w io.Writer, s Snapshot) error {
	lastType := ""
	typeLine := func(name, kind string) error {
		if name == lastType {
			return nil
		}
		lastType = name
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	for _, c := range s.Counters {
		if err := typeLine(c.Name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.Name, labelKey(c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := typeLine(g.Name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	bounds := BucketBounds()
	for _, h := range s.Histograms {
		if err := typeLine(h.Name, "histogram"); err != nil {
			return err
		}
		var cum uint64
		for i, c := range h.Buckets {
			cum += c
			le := "+Inf"
			if i < len(bounds) {
				le = formatSeconds(bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, bucketLabels(h.Labels, le), cum); err != nil {
				return err
			}
		}
		lk := labelKey(h.Labels)
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", h.Name, lk, h.SumSeconds, h.Name, lk, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// bucketLabels merges a series' label set with the bucket's le label:
// `{le="x"}` for flat histograms, `{home="a",...,le="x"}` otherwise.
func bucketLabels(l *Labels, le string) string {
	set := labelKey(l)
	if set == "" {
		return `{le="` + le + `"}`
	}
	return set[:len(set)-1] + `,le="` + le + `"}`
}

// SnapshotJSON is the envelope WriteJSON emits: the snapshot plus the
// shared histogram bucket bounds. Exported so decoders (vgtop) can
// unmarshal the endpoint's output directly.
type SnapshotJSON struct {
	BucketBoundsSeconds []float64 `json:"bucket_bounds_seconds"`
	Snapshot
}

// WriteJSON writes the snapshot as indented JSON. Histogram bucket
// bounds are included once under "bucket_bounds_seconds"; labeled
// series carry a "labels" object and histograms with exemplars carry
// a per-bucket "exemplars" array of command IDs.
func WriteJSON(w io.Writer, s Snapshot) error {
	bounds := make([]float64, 0, len(bucketBounds))
	for _, b := range bucketBounds {
		// Round to the label precision so JSON shows 1.6384, not the
		// raw float64 1.6383999999999999.
		v, _ := strconv.ParseFloat(formatSeconds(b), 64)
		bounds = append(bounds, v)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SnapshotJSON{BucketBoundsSeconds: bounds, Snapshot: s})
}

// WriteTable writes a compact human-readable table of the non-zero
// metrics: counters and gauges as `name value`, histograms with
// count, mean, and estimated p50/p95/p99 columns. Rows follow the
// snapshot's (name, label set) order, so repeated runs print
// identically. Binaries print this at exit so every run doubles as
// regression evidence.
func WriteTable(w io.Writer, s Snapshot) error {
	wrote := false
	for _, c := range s.Counters {
		if c.Value == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-44s %d\n", c.Name+labelKey(c.Labels), c.Value); err != nil {
			return err
		}
		wrote = true
	}
	for _, g := range s.Gauges {
		if g.Value == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-44s %d\n", g.Name, g.Value); err != nil {
			return err
		}
		wrote = true
	}
	for _, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		mean := h.SumSeconds / float64(h.Count)
		if _, err := fmt.Fprintf(w, "%-44s count=%d mean=%.3fs p50≤%s p95≤%s p99≤%s\n",
			h.Name+labelKey(h.Labels), h.Count, mean,
			formatSeconds(h.Quantile(0.50)),
			formatSeconds(h.Quantile(0.95)),
			formatSeconds(h.Quantile(0.99))); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		_, err := fmt.Fprintln(w, "(no metrics recorded)")
		return err
	}
	return nil
}

// formatSeconds renders a duration as a compact seconds value for
// bucket labels ("0.0001", "1.6384", "30"). Six significant digits
// cover every generated bound exactly without float artifacts.
func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.6g", d.Seconds())
}

// Handler serves the registry snapshot over HTTP: the text format by
// default, JSON when the request asks for it with ?format=json or an
// application/json Accept header. GET and HEAD only; HEAD returns the
// headers without a body.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", ContentTypeJSON)
		} else {
			w.Header().Set("Content-Type", ContentTypeText)
		}
		if req.Method == http.MethodHead {
			return
		}
		s := r.Snapshot()
		if wantJSON {
			_ = WriteJSON(w, s)
			return
		}
		_ = WriteText(w, s)
	})
}
