// Package obs is VoiceGuard's observability layer on top of
// internal/metrics: a runtime telemetry collector sampling the Go
// runtime into the app registry, declarative SLO objectives evaluated
// one-shot against metric snapshots, and text renderers (SLO report,
// vgtop live view) shared by the commands.
package obs

import (
	"fmt"
	"io"
	"math"
	rtm "runtime/metrics"
	"sync"
	"time"

	"voiceguard/internal/metrics"
)

// Runtime telemetry metric names. Registered as flat metrics: the
// runtime is per-process, so there is no label dimension.
const (
	MetricGoroutines   = "runtime_goroutines"
	MetricHeapBytes    = "runtime_heap_bytes"
	MetricGCPause      = "runtime_gc_pause_seconds"
	MetricSchedLatency = "runtime_sched_latency_seconds"
)

// runtime/metrics sample names the collector reads.
const (
	srcGoroutines   = "/sched/goroutines:goroutines"
	srcHeapBytes    = "/memory/classes/heap/objects:bytes"
	srcGCPause      = "/gc/pauses:seconds"
	srcSchedLatency = "/sched/latencies:seconds"
)

// Runtime samples the Go runtime (goroutine count, live heap bytes,
// GC pause and scheduler latency distributions) into a metrics
// registry, so runtime health is exposed and snapshotted alongside
// the app metrics. The runtime's cumulative histograms are folded in
// as deltas between collections, bucketed onto the registry's fixed
// latency scale.
type Runtime struct {
	goroutines *metrics.Gauge
	heap       *metrics.Gauge
	gcPause    *metrics.Histogram
	schedLat   *metrics.Histogram

	mu      sync.Mutex
	samples []rtm.Sample
	prev    map[string][]uint64
}

// NewRuntime registers the runtime telemetry metrics on reg (the
// Default registry if nil) and returns the collector. Nothing is
// sampled until Collect or Start.
func NewRuntime(reg *metrics.Registry) *Runtime {
	if reg == nil {
		reg = metrics.Default
	}
	r := &Runtime{
		goroutines: reg.Gauge(MetricGoroutines),
		heap:       reg.Gauge(MetricHeapBytes),
		gcPause:    reg.Histogram(MetricGCPause),
		schedLat:   reg.Histogram(MetricSchedLatency),
		prev:       make(map[string][]uint64),
	}
	for _, name := range []string{srcGoroutines, srcHeapBytes, srcGCPause, srcSchedLatency} {
		r.samples = append(r.samples, rtm.Sample{Name: name})
	}
	return r
}

// Collect takes one sample of every runtime metric and updates the
// registry. Safe for concurrent use.
func (r *Runtime) Collect() {
	r.mu.Lock()
	defer r.mu.Unlock()
	rtm.Read(r.samples)
	for i := range r.samples {
		s := &r.samples[i]
		switch s.Value.Kind() {
		case rtm.KindUint64:
			v := int64(s.Value.Uint64())
			if s.Name == srcGoroutines {
				r.goroutines.Set(v)
			} else {
				r.heap.Set(v)
			}
		case rtm.KindFloat64Histogram:
			dst := r.gcPause
			if s.Name == srcSchedLatency {
				dst = r.schedLat
			}
			r.foldHistogramLocked(s.Name, s.Value.Float64Histogram(), dst)
		}
	}
}

// foldHistogramLocked observes the delta between the runtime's
// cumulative histogram and the previous collection into dst. Each
// runtime bucket's mass is attributed to its upper boundary (the
// registry histogram re-buckets it onto the fixed latency scale).
func (r *Runtime) foldHistogramLocked(name string, h *rtm.Float64Histogram, dst *metrics.Histogram) {
	prev := r.prev[name]
	if len(prev) != len(h.Counts) {
		prev = make([]uint64, len(h.Counts))
	}
	next := make([]uint64, len(h.Counts))
	copy(next, h.Counts)
	for i, c := range h.Counts {
		d := c - prev[i]
		if d == 0 || d > c { // zero delta, or the runtime reset
			continue
		}
		// Buckets[i] and Buckets[i+1] bound Counts[i]; the final
		// boundary may be +Inf, in which case the lower bound stands
		// in for the (extremely rare) overflow mass.
		bound := h.Buckets[i+1]
		if math.IsInf(bound, 1) {
			bound = h.Buckets[i]
		}
		dst.ObserveN(time.Duration(bound*float64(time.Second)), d)
	}
	r.prev[name] = next
}

// WriteRuntime renders a snapshot's runtime-telemetry series as one
// compact block: the point-in-time gauges plus tail quantiles of the
// GC pause and scheduler latency distributions. Series the collector
// has not populated are omitted.
func WriteRuntime(w io.Writer, s metrics.Snapshot) error {
	for _, g := range s.Gauges {
		switch g.Name {
		case MetricGoroutines:
			if _, err := fmt.Fprintf(w, "goroutines  %d\n", g.Value); err != nil {
				return err
			}
		case MetricHeapBytes:
			if _, err := fmt.Fprintf(w, "heap        %.1f MiB\n", float64(g.Value)/(1<<20)); err != nil {
				return err
			}
		}
	}
	for _, h := range s.Histograms {
		if h.Labels != nil || h.Count == 0 {
			continue
		}
		var label string
		switch h.Name {
		case MetricGCPause:
			label = "gc pause"
		case MetricSchedLatency:
			label = "sched lat"
		default:
			continue
		}
		if _, err := fmt.Fprintf(w, "%-11s n=%d p50≤%s p99≤%s\n",
			label, h.Count, h.Quantile(0.50), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// Start launches a background goroutine collecting every interval.
// The returned stop function is idempotent.
func (r *Runtime) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				r.Collect()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			ticker.Stop()
			close(done)
		})
	}
}
