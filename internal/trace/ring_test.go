package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestRecorderRoundsUpToPowerOfTwo(t *testing.T) {
	cases := map[int]int{0: 16, 1: 16, 16: 16, 17: 32, 100: 128, 4096: 4096}
	for in, want := range cases {
		if got := NewRecorder(in).Cap(); got != want {
			t.Fatalf("NewRecorder(%d).Cap() = %d, want %d", in, got, want)
		}
	}
}

func TestRecorderKeepsLastN(t *testing.T) {
	r := NewRecorder(16)
	for i := 1; i <= 40; i++ {
		r.Put(&Span{Command: CommandID(i)})
	}
	if r.Recorded() != 40 {
		t.Fatalf("Recorded = %d, want 40", r.Recorded())
	}
	got := r.Snapshot()
	if len(got) != 16 {
		t.Fatalf("snapshot = %d spans, want 16", len(got))
	}
	for i, s := range got {
		if want := CommandID(25 + i); s.Command != want {
			t.Fatalf("snapshot[%d].Command = %d, want %d (oldest-first order)", i, s.Command, want)
		}
	}
}

func TestRecorderYoungRing(t *testing.T) {
	r := NewRecorder(16)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %d spans", len(got))
	}
	r.Put(&Span{Command: 1})
	r.Put(&Span{Command: 2})
	got := r.Snapshot()
	if len(got) != 2 || got[0].Command != 1 || got[1].Command != 2 {
		t.Fatalf("young ring snapshot = %+v", got)
	}
}

// TestRecorderConcurrentPut hammers the ring from many goroutines
// while snapshotting; run under -race this proves the slot locking
// race-clean.
func TestRecorderConcurrentPut(t *testing.T) {
	r := NewRecorder(64)
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Put(&Span{Command: CommandID(w*perWriter + i + 1)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, s := range r.Snapshot() {
				if s.Command == 0 {
					t.Error("snapshot observed a zero span")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Recorded() != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), writers*perWriter)
	}
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("final snapshot = %d spans, want 64", got)
	}
}

// A slot is a fixed part of the process's live heap: the Default
// tracer keeps 4,096 of them.
func TestRecorderSlotSize(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 192 {
		t.Fatalf("a recorder slot is %d bytes, want at most 192", size)
	}
}

func TestRecordAllocatesNothing(t *testing.T) {
	tr := New(64)
	speaker := "echo"
	n := 0
	record := func() {
		n++
		tr.Record(Span{
			Command: CommandID(n), Stage: StageGuard, Name: "hold",
			Start: t0, End: t0.Add(time.Duration(n)),
			Attrs: []Attr{String("speaker", speaker), Int("held_packets", n+1000),
				Float("rssi", float64(n)/3), Bool("noncommand", n%2 == 0)},
		})
	}
	record()
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("Record allocated %v times per span", allocs)
	}
}

func TestSnapshotKeepsValueTypes(t *testing.T) {
	tr := New(16)
	tr.Record(Event(1, StageGuard, "kinds", t0,
		String("s", "x"), Int("i", -3), Int64("i64", 1<<40), Float("f", -7.5)))
	tr.Record(Event(2, StageGuard, "bool", t0, Bool("b", true), Duration("d", 1500*time.Millisecond)))
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot = %d spans, want 2", len(spans))
	}
	want := map[string]any{"s": "x", "i": -3, "i64": int64(1 << 40), "f": -7.5, "b": true, "d": 1.5}
	for _, s := range spans {
		for _, a := range s.Attrs {
			w := want[a.Key]
			if fmt.Sprintf("%T %v", a.Value, a.Value) != fmt.Sprintf("%T %v", w, w) {
				t.Errorf("attr %s = %T %v, want %T %v", a.Key, a.Value, a.Value, w, w)
			}
			delete(want, a.Key)
		}
	}
	if len(want) != 0 {
		t.Fatalf("attributes lost: %v", want)
	}
}

// A span keeps its start instant, location and duration: the wall
// clock's spans are local, the simulation's UTC.
func TestSnapshotKeepsTimes(t *testing.T) {
	tr := New(16)
	now := time.Now()
	tr.Record(Span{Command: 1, Start: now, End: now.Add(1234567 * time.Nanosecond)})
	tr.Record(Span{Command: 2, Start: t0, End: t0.Add(time.Hour)})
	tr.Record(Span{Command: 3})
	spans := tr.Snapshot()
	if s := spans[0]; !s.Start.Equal(now) || s.Start.Location() != time.Local || s.Duration() != 1234567*time.Nanosecond {
		t.Errorf("wall span = %v + %v, want %v + 1.234567ms", s.Start, s.Duration(), now)
	}
	if s := spans[1]; s.Start != t0 || s.End != t0.Add(time.Hour) {
		t.Errorf("simulated span = %v..%v, want %v..%v", s.Start, s.End, t0, t0.Add(time.Hour))
	}
	if s := spans[2]; !s.Start.IsZero() || !s.End.IsZero() {
		t.Errorf("zero span = %v..%v", s.Start, s.End)
	}
}

func TestRecordCountsDroppedAttrs(t *testing.T) {
	tr := New(16)
	tr.Record(Event(1, StageGuard, "wide", t0,
		Int("a", 1), Int("b", 2), Int("c", 3), Int("d", 4), Int("e", 5),
		Attr{Key: "u", Value: uint8(6)}))
	s := tr.Snapshot()[0]
	if len(s.Attrs) != maxInlineAttrs+1 || s.Attr("d") != 4 || s.Attr(AttrsDropped) != 2 {
		t.Fatalf("attrs = %v, want a..d and %s=2", s.Attrs, AttrsDropped)
	}
}

// TestSnapshotNeverTorn races writers that lap a small ring against
// snapshots: every span a snapshot returns must be one a writer
// recorded whole, each of its fields derived from the same number.
// Run under -race it also proves the slot locking race-clean.
func TestSnapshotNeverTorn(t *testing.T) {
	r := NewRecorder(16)
	stages := []string{StageGuard, StageLive, StageProxy}
	span := func(k int) Span {
		start := t0.Add(time.Duration(k) * time.Second)
		return Span{
			Command: CommandID(k), Stage: stages[k%3], Name: stages[(k+1)%3],
			Start: start, End: start.Add(time.Duration(k) * time.Millisecond),
			Attrs: []Attr{Int("k", k), String("stage", stages[k%3]), Int64("neg", -int64(k))},
		}
	}
	check := func(s Span) error {
		k := int(s.Command)
		w := span(k)
		if s.Stage != w.Stage || s.Name != w.Name || !s.Start.Equal(w.Start) || s.Duration() != w.Duration() ||
			len(s.Attrs) != 3 || s.Attr("k") != k || s.Attr("stage") != w.Stage || s.Attr("neg") != -int64(k) {
			return fmt.Errorf("torn span %+v", s)
		}
		return nil
	}
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				s := span(w*perWriter + i)
				r.Put(&s)
			}
		}(w)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			for _, s := range r.Snapshot() {
				if err := check(s); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecorderPut(b *testing.B) {
	r := NewRecorder(DefaultRecorderSize)
	s := &Span{Command: 1, Stage: StageGuard, Name: "hold"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Put(s)
	}
}
