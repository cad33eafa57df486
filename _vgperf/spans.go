package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voiceguard/internal/trace"
)

// span is one wrapped call into a layer, timed from outside the
// program: name, interval, the span that caused it, and the op (home
// or command) it belongs to.
type span struct {
	id, parent uint64
	op         uint64
	layer      string
	start, end time.Time
}

// recorder keeps spans in memory until the run ends. Span IDs are
// handed out whether or not recording is on, so parent links stay
// valid when a run alternates traced and untraced ops.
type recorder struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) nextID() uint64 { return r.ids.Add(1) }

// add records s when tracing is on.
func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	if s.id == 0 {
		s.id = r.nextID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime is one layer's row in the self-time table.
type layerTime struct {
	layer       string
	count       int
	total, self time.Duration
}

// selfTimes returns, per layer, the summed span time and self time: a
// span's duration minus the part of its interval its children cover.
// Children that ran in parallel are merged, so overlap is not
// subtracted twice.
func selfTimes(spans []span) []layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		row := rows[s.layer]
		if row == nil {
			row = &layerTime{layer: s.layer}
			rows[s.layer] = row
		}
		d := s.end.Sub(s.start)
		row.count++
		row.total += d
		row.self += d - covered(s, children[s.id])
	}
	out := make([]layerTime, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	return total + cur.b.Sub(cur.a)
}

// printSelfTimes writes the per-layer self-time table; wall is the
// time the table's shares are taken against.
func printSelfTimes(w io.Writer, rows []layerTime, wall time.Duration) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %8s\n", "layer", "spans", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %12.2f %12.2f %8.2f\n", r.layer, r.count,
			ms(r.total), ms(r.self), 100*pct(r.self, wall))
	}
}

// writeSpans exports the spans as a Chrome trace_event file. The op
// becomes the track (trace.Span.Command); the span's own ID and its
// parent ride along as attributes.
func writeSpans(path string, spans []span) error {
	out := make([]trace.Span, len(spans))
	for i, s := range spans {
		out[i] = trace.Span{
			Command: trace.CommandID(s.op),
			Stage:   "vgperf",
			Name:    s.layer,
			Start:   s.start,
			End:     s.end,
			Attrs: []trace.Attr{
				trace.Int64("span", int64(s.id)),
				trace.Int64("parent", int64(s.parent)),
			},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
