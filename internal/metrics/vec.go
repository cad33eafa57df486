package metrics

import (
	"sync"
	"sync/atomic"
)

// DefaultMaxCardinality bounds the number of interned label sets per
// metric family. A fleet run labels by home, so the bound is sized
// for hundreds of tenants per process; anything past it collapses
// into one overflow child instead of growing without limit.
const DefaultMaxCardinality = 512

// LabelOverflow is the reserved Home label of the synthetic child
// that absorbs updates once a family exceeds its cardinality bound.
const LabelOverflow = "_overflow"

// vec is the shared child table behind CounterVec and HistogramVec.
// Lookups load an immutable map through an atomic pointer — the hot
// path is one pointer load plus one struct-keyed map index, lock-free
// and allocation-free. Inserting a new label set (interning) takes the
// mutex, copies the map, and publishes the new version; after that
// first hit the label set is interned and every later update is
// hot-path only.
type vec[T any] struct {
	name     string
	mu       sync.Mutex
	children atomic.Pointer[map[Labels]*T]
	newChild func(name string, labels Labels) *T
}

// with returns the child for the given label set, interning it on
// first use.
func (v *vec[T]) with(l Labels) *T {
	if m := v.children.Load(); m != nil {
		if c, ok := (*m)[l]; ok {
			return c
		}
	}
	return v.intern(l)
}

// intern inserts a child for l under the mutex using copy-on-write,
// collapsing into the overflow child once the family is at capacity.
func (v *vec[T]) intern(l Labels) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	var cur map[Labels]*T
	if m := v.children.Load(); m != nil {
		cur = *m
		if c, ok := cur[l]; ok {
			return c
		}
		if len(cur) >= DefaultMaxCardinality {
			l = Labels{Home: LabelOverflow}
			if c, ok := cur[l]; ok {
				return c
			}
		}
	}
	next := make(map[Labels]*T, len(cur)+1)
	for k, c := range cur {
		next[k] = c
	}
	c := v.newChild(v.name, l)
	next[l] = c
	v.children.Store(&next)
	return c
}

// snapshot returns the current child map (nil if no label set has
// been interned yet). The map is immutable; callers may only read it.
func (v *vec[T]) snapshot() map[Labels]*T {
	if m := v.children.Load(); m != nil {
		return *m
	}
	return nil
}

// CounterVec is a family of counters sharing one name, keyed by label
// set.
type CounterVec struct {
	v vec[Counter]
}

// Name returns the family's registered name.
func (cv *CounterVec) Name() string { return cv.v.name }

// With returns the counter for the given label set, interning the set
// on first use. Callers on hot paths should resolve the child once
// and update through the returned handle.
func (cv *CounterVec) With(l Labels) *Counter { return cv.v.with(l) }

// HistogramVec is a family of latency histograms sharing one name,
// keyed by label set.
type HistogramVec struct {
	v vec[Histogram]
}

// Name returns the family's registered name.
func (hv *HistogramVec) Name() string { return hv.v.name }

// With returns the histogram for the given label set, interning the
// set on first use.
func (hv *HistogramVec) With(l Labels) *Histogram { return hv.v.with(l) }

func newCounterChild(name string, l Labels) *Counter { return &Counter{name: name, labels: l} }
func newHistogramChild(name string, l Labels) *Histogram {
	return &Histogram{name: name, labels: l}
}
