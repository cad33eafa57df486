// Package metrics is VoiceGuard's dependency-free instrumentation
// layer: lock-free atomic counters and gauges, fixed-bucket latency
// histograms on the paper's hold-time scale, and a registry with a
// consistent Snapshot API plus text and JSON exposition.
//
// Metric handles are cheap pointers obtained once (typically as
// package-level vars) and updated on the hot path with single atomic
// operations — no locks, no allocation. The registry mutex is only
// taken at registration and snapshot time.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name   string
	labels Labels
	v      atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Labels returns the counter's label set (zero for flat counters).
func (c *Counter) Labels() Labels { return c.labels }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, active sessions).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry or the package-level Default.
type Registry struct {
	mu            sync.RWMutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	histograms    map[string]*Histogram
	counterVecs   map[string]*CounterVec
	histogramVecs map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		histograms:    make(map[string]*Histogram),
		counterVecs:   make(map[string]*CounterVec),
		histogramVecs: make(map[string]*HistogramVec),
	}
}

// Default is the process-wide registry the instrumented packages
// register into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
// Registering the same name twice returns the same handle; reusing a
// name across metric kinds panics (an instrumentation bug).
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	h := &Histogram{name: name}
	r.histograms[name] = h
	return h
}

// CounterVec returns the named counter family, creating it on first
// use. Family names share the registry namespace with flat metrics:
// reusing a name across kinds panics.
func (r *Registry) CounterVec(name string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counterVecs[name]; ok {
		return v
	}
	r.checkFreeLocked(name, "counter vec")
	v := &CounterVec{v: vec[Counter]{name: name, newChild: newCounterChild}}
	r.counterVecs[name] = v
	return v
}

// HistogramVec returns the named histogram family, creating it on
// first use.
func (r *Registry) HistogramVec(name string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.histogramVecs[name]; ok {
		return v
	}
	r.checkFreeLocked(name, "histogram vec")
	v := &HistogramVec{v: vec[Histogram]{name: name, newChild: newHistogramChild}}
	r.histogramVecs[name] = v
	return v
}

// checkFreeLocked panics if name is already registered as another
// metric kind. Callers hold r.mu.
func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram, requested as %s", name, kind))
	}
	if _, ok := r.counterVecs[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a counter vec, requested as %s", name, kind))
	}
	if _, ok := r.histogramVecs[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram vec, requested as %s", name, kind))
	}
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// NewCounterVec registers a counter family on the Default registry.
func NewCounterVec(name string) *CounterVec { return Default.CounterVec(name) }

// NewHistogramVec registers a histogram family on the Default
// registry.
func NewHistogramVec(name string) *HistogramVec { return Default.HistogramVec(name) }

// CounterSnapshot is one counter's state at snapshot time. Labels is
// nil for flat counters.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels *Labels `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnapshot is one gauge's state at snapshot time. Gauges are
// flat: there is no gauge family.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time view of every registered metric —
// labeled family children flattened alongside the flat series —
// sorted by name, then by label set in the fixed field order.
// Individual values are read atomically; each histogram's Count
// equals the sum of its bucket counts by construction.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	for _, cv := range r.counterVecs {
		for _, c := range cv.v.snapshot() {
			counters = append(counters, c)
		}
	}
	for _, hv := range r.histogramVecs {
		for _, h := range hv.v.snapshot() {
			hists = append(hists, h)
		}
	}
	r.mu.RUnlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Labels: labelsPtr(c.labels), Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.snapshot())
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return labelKey(s.Counters[i].Labels) < labelKey(s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return labelKey(s.Histograms[i].Labels) < labelKey(s.Histograms[j].Labels)
	})
	return s
}

// labelsPtr boxes a non-zero label set for a snapshot entry; flat
// metrics keep a nil Labels so their JSON stays unchanged.
func labelsPtr(l Labels) *Labels {
	if l.IsZero() {
		return nil
	}
	return &l
}
