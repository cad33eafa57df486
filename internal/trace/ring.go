package trace

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Recorder is the flight recorder: a fixed-size ring of value slots
// holding the most recently recorded spans. A writer claims a slot
// with one atomic add on the ring's counter, takes the slot's lock —
// uncontended unless a snapshot is copying that slot or the ring laps
// a writer — and copies the span in. Recording allocates nothing: a
// slot keeps no pointer into the recorded Span, so the caller's span
// and its attribute values stay on the caller's stack. A snapshot
// copies each slot under the same lock, so it never sees a torn span;
// a slot already overwritten by a newer span is skipped, keeping the
// snapshot in recording order.
type Recorder struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64
}

// slot is one ring entry: a spin lock around an encoded span.
type slot struct {
	lock atomic.Uint32
	rec  slotSpan
}

// maxInlineAttrs is how many attributes a slot keeps. Every span the
// pipeline records carries at most four.
const maxInlineAttrs = 4

// AttrsDropped is the attribute a snapshot adds to a span that was
// recorded with more than maxInlineAttrs attributes, or with an
// attribute whose value is not a string, int, int64, float64 or bool:
// its value is the number of attributes the recorder did not keep.
const AttrsDropped = "attrs_dropped"

// attrKind is the dynamic type of a stored attribute value.
type attrKind uint8

const (
	kindString attrKind = iota + 1
	kindInt
	kindInt64
	kindFloat
	kindBool
)

// slotSpan is one span as a slot stores it. Stage, name and attribute
// keys are interned (see names); a string value keeps a pointer to its
// bytes, every other value its bits; the start time keeps its wall
// reading and the end time is kept as the span's duration, which is
// all the exporters read.
type slotSpan struct {
	seq     uint64 // 1-based recording index; 0 marks an empty slot
	command CommandID
	sec     int64 // Start, Unix seconds
	dur     time.Duration
	nsec    int32 // Start, nanoseconds within sec
	local   bool  // Start is in time.Local rather than UTC
	nattrs  uint8
	dropped uint8
	kinds   [maxInlineAttrs]attrKind
	stage   *name
	name    *name
	keys    [maxInlineAttrs]*name
	vals    [maxInlineAttrs]attrValue
}

// attrValue holds one attribute value: a string's data pointer and
// length, or another kind's bits in n.
type attrValue struct {
	p unsafe.Pointer
	n uint64
}

// NewRecorder returns a recorder keeping the last capacity spans,
// rounded up to a power of two (minimum 16).
func NewRecorder(capacity int) *Recorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Recorder{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Cap returns the recorder's capacity.
func (r *Recorder) Cap() int { return len(r.slots) }

// Recorded returns the lifetime number of spans put into the ring.
func (r *Recorder) Recorded() uint64 { return r.next.Load() }

// Put copies one span into the ring, overwriting the oldest once the
// ring is full. The recorder keeps nothing s points to but the bytes
// of its string attribute values.
func (r *Recorder) Put(s *Span) {
	var rec slotSpan
	rec.encode(s)
	r.put(&rec)
}

// put stores an encoded span in the slot its claimed index names. A
// writer the ring lapped finds a newer span there and leaves it.
func (r *Recorder) put(rec *slotSpan) {
	rec.seq = r.next.Add(1)
	sl := &r.slots[(rec.seq-1)&r.mask]
	sl.acquire()
	if sl.rec.seq < rec.seq {
		sl.rec = *rec
	}
	sl.lock.Store(0)
}

func (sl *slot) acquire() {
	for !sl.lock.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

// Snapshot returns the ring's contents, oldest first. Slots not yet
// written (a young ring), still being written, or already holding a
// newer span are skipped.
func (r *Recorder) Snapshot() []Span {
	n := r.next.Load()
	count := uint64(len(r.slots))
	start := uint64(0)
	if n > count {
		start = n - count
	}
	out := make([]Span, 0, n-start)
	for i := start + 1; i <= n; i++ {
		sl := &r.slots[(i-1)&r.mask]
		sl.acquire()
		rec := sl.rec
		sl.lock.Store(0)
		if rec.seq == i {
			out = append(out, rec.span())
		}
	}
	return out
}

// encode fills rec from s, reading its strings and attribute values
// without keeping a pointer into s.
func (rec *slotSpan) encode(s *Span) {
	rec.command = s.Command
	rec.stage = names.intern(s.Stage)
	rec.name = names.intern(s.Name)
	rec.sec, rec.nsec = s.Start.Unix(), int32(s.Start.Nanosecond())
	rec.local = s.Start.Location() == time.Local
	rec.dur = s.End.Sub(s.Start)
	for i := range s.Attrs {
		a := &s.Attrs[i]
		k := int(rec.nattrs)
		if k == maxInlineAttrs {
			rec.dropped++
			continue
		}
		v := &rec.vals[k]
		switch x := a.Value.(type) {
		case string:
			rec.kinds[k], v.p, v.n = kindString, unsafe.Pointer(unsafe.StringData(x)), uint64(len(x))
		case int:
			rec.kinds[k], v.n = kindInt, uint64(x)
		case int64:
			rec.kinds[k], v.n = kindInt64, uint64(x)
		case float64:
			rec.kinds[k], v.n = kindFloat, math.Float64bits(x)
		case bool:
			rec.kinds[k], v.n = kindBool, 0
			if x {
				v.n = 1
			}
		default:
			rec.dropped++
			continue
		}
		rec.keys[k] = names.intern(a.Key)
		rec.nattrs++
	}
}

// span rebuilds the recorded span, each attribute value with the
// dynamic type it was recorded with.
func (rec *slotSpan) span() Span {
	start := time.Unix(rec.sec, int64(rec.nsec))
	if !rec.local {
		start = start.UTC()
	}
	s := Span{
		Command: rec.command,
		Stage:   rec.stage.s,
		Name:    rec.name.s,
		Start:   start,
		End:     start.Add(rec.dur),
	}
	n := int(rec.nattrs)
	if rec.dropped > 0 {
		n++
	}
	if n == 0 {
		return s
	}
	s.Attrs = make([]Attr, 0, n)
	for k := 0; k < int(rec.nattrs); k++ {
		v := rec.vals[k]
		var val any
		switch rec.kinds[k] {
		case kindString:
			val = unsafe.String((*byte)(v.p), int(v.n))
		case kindInt:
			val = int(v.n)
		case kindInt64:
			val = int64(v.n)
		case kindFloat:
			val = math.Float64frombits(v.n)
		case kindBool:
			val = v.n != 0
		}
		s.Attrs = append(s.Attrs, Attr{Key: rec.keys[k].s, Value: val})
	}
	if rec.dropped > 0 {
		s.Attrs = append(s.Attrs, Int(AttrsDropped, int(rec.dropped)))
	}
	return s
}

// name is one interned string: a span stage, a span name or an
// attribute key.
type name struct{ s string }

// maxNames bounds the intern table. Stages, span names and attribute
// keys are a small fixed vocabulary; a program that names spans from
// data past the bound still records them, at one allocation per new
// string.
const maxNames = 1 << 12

// nameCacheBits sizes the lock-free front of the intern table.
const nameCacheBits = 10

// nameTable interns span strings, so a slot can name them by pointer
// without keeping a pointer into the recorded span. Its front is a
// direct-mapped cache keyed by the string's address and checked
// against its contents; a miss falls back to the locked map.
type nameTable struct {
	cache [1 << nameCacheBits]atomic.Pointer[name]

	mu  sync.Mutex
	ids map[string]*name
}

// names is the process-wide intern table every recorder shares.
var names = nameTable{ids: make(map[string]*name)}

// intern returns the interned copy of s.
func (t *nameTable) intern(s string) *name {
	h := uint64(uintptr(unsafe.Pointer(unsafe.StringData(s))))
	h = (h ^ uint64(len(s))) * 0x9E3779B97F4A7C15 >> (64 - nameCacheBits)
	if n := t.cache[h].Load(); n != nil && n.s == s {
		return n
	}
	t.mu.Lock()
	n, ok := t.ids[s]
	if !ok {
		n = &name{s: strings.Clone(s)}
		if len(t.ids) < maxNames {
			t.ids[n.s] = n
		}
	}
	t.mu.Unlock()
	t.cache[h].Store(n)
	return n
}
