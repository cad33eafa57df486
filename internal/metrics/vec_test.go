package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestLabelsString(t *testing.T) {
	if got := (Labels{}).String(); got != "" {
		t.Fatalf("zero labels String = %q, want empty", got)
	}
	l := Labels{Home: "h1", Verdict: "allow", Stage: "guard"}
	want := `{home="h1",stage="guard",verdict="allow"}`
	if got := l.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestLabelsMatch(t *testing.T) {
	l := Labels{Home: "h1", Speaker: "echo", Profile: "drop20"}
	for _, tc := range []struct {
		filter Labels
		want   bool
	}{
		{Labels{}, true},
		{Labels{Home: "h1"}, true},
		{Labels{Home: "h1", Profile: "drop20"}, true},
		{Labels{Home: "h2"}, false},
		{Labels{Stage: "guard"}, false},
	} {
		if got := l.Match(tc.filter); got != tc.want {
			t.Errorf("Match(%v) = %v, want %v", tc.filter, got, tc.want)
		}
	}
}

func TestCounterVecInterning(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("verdicts")
	a := cv.With(Labels{Home: "h1", Verdict: "allow"})
	b := cv.With(Labels{Home: "h1", Verdict: "allow"})
	if a != b {
		t.Fatal("same label set returned different children")
	}
	c := cv.With(Labels{Home: "h1", Verdict: "block"})
	if a == c {
		t.Fatal("different label sets shared a child")
	}
	a.Add(3)
	c.Inc()

	s := r.Snapshot()
	if len(s.Counters) != 2 {
		t.Fatalf("snapshot has %d counters, want 2", len(s.Counters))
	}
	// Snapshot order: same name, label sets sorted by the fixed
	// rendering ("allow" < "block").
	if s.Counters[0].Labels.Verdict != "allow" || s.Counters[0].Value != 3 {
		t.Fatalf("first series = %+v", s.Counters[0])
	}
	if s.Counters[1].Labels.Verdict != "block" || s.Counters[1].Value != 1 {
		t.Fatalf("second series = %+v", s.Counters[1])
	}
}

func TestVecCardinalityBound(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("bounded")
	for i := 0; i < DefaultMaxCardinality+7; i++ {
		cv.With(Labels{Home: fmt.Sprintf("h%d", i)}).Inc()
	}
	s := r.Snapshot()
	// The bound's worth of interned children plus the overflow child.
	if len(s.Counters) != DefaultMaxCardinality+1 {
		t.Fatalf("snapshot has %d series, want %d", len(s.Counters), DefaultMaxCardinality+1)
	}
	var overflow int64
	for _, c := range s.Counters {
		if c.Labels != nil && c.Labels.Home == LabelOverflow {
			overflow = c.Value
		}
	}
	if overflow != 7 {
		t.Fatalf("overflow child absorbed %d updates, want 7", overflow)
	}
}

func TestVecKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("shared_name")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a vec name as a flat counter did not panic")
		}
	}()
	r.Counter("shared_name")
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveExemplar(3*time.Millisecond, 41)
	h.ObserveExemplar(3*time.Millisecond, 42) // most recent wins
	h.ObserveExemplar(20*time.Second, 7)
	h.ObserveExemplar(time.Millisecond, 0) // id 0 keeps prior exemplar

	s := r.Snapshot().Histograms[0]
	if s.Exemplars == nil {
		t.Fatal("exemplars missing from snapshot")
	}
	i := bucketIndex(3 * time.Millisecond)
	if s.Exemplars[i] != 42 {
		t.Fatalf("bucket %d exemplar = %d, want 42 (most recent)", i, s.Exemplars[i])
	}
	j := bucketIndex(20 * time.Second)
	if s.Exemplars[j] != 7 {
		t.Fatalf("bucket %d exemplar = %d, want 7", j, s.Exemplars[j])
	}

	// A histogram that never saw an exemplar omits the array from
	// JSON entirely.
	h2 := r.Histogram("lat2")
	h2.Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded SnapshotJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, hs := range decoded.Histograms {
		switch hs.Name {
		case "lat":
			if hs.Exemplars[i] != 42 {
				t.Fatalf("decoded exemplar = %d, want 42", hs.Exemplars[i])
			}
		case "lat2":
			if hs.Exemplars != nil {
				t.Fatalf("lat2 exemplars = %v, want omitted", hs.Exemplars)
			}
		}
	}
}

func TestObserveN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bulk")
	h.ObserveN(2*time.Millisecond, 5)
	h.ObserveN(time.Second, 0) // no-op
	s := r.Snapshot().Histograms[0]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := 5 * (2 * time.Millisecond).Seconds(); s.SumSeconds != want {
		t.Fatalf("sum = %v, want %v", s.SumSeconds, want)
	}
}

func TestLabeledTextExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("verdicts")
	cv.With(Labels{Home: "h1", Verdict: "allow"}).Inc()
	cv.With(Labels{Home: "h1", Verdict: "block"}).Add(2)
	hv := r.HistogramVec("lat")
	hv.With(Labels{Home: "h1"}).Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`verdicts{home="h1",verdict="allow"} 1`,
		`verdicts{home="h1",verdict="block"} 2`,
		`lat_bucket{home="h1",le="0.0016"} 1`,
		`lat_count{home="h1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, not per series.
	if n := strings.Count(out, "# TYPE verdicts counter"); n != 1 {
		t.Errorf("TYPE line appears %d times, want 1:\n%s", n, out)
	}
}

func TestLabeledTableDeterministic(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("verdicts")
	cv.With(Labels{Home: "h2"}).Inc()
	cv.With(Labels{Home: "h1"}).Inc()
	r.Counter("alpha_total").Inc()

	var a, b bytes.Buffer
	if err := WriteTable(&a, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("table output not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d rows, want 3:\n%s", len(lines), a.String())
	}
	if !strings.HasPrefix(lines[0], "alpha_total") ||
		!strings.Contains(lines[1], `verdicts{home="h1"}`) ||
		!strings.Contains(lines[2], `verdicts{home="h2"}`) {
		t.Fatalf("rows out of (name, label set) order:\n%s", a.String())
	}
}

func TestHandlerHeadAndMethodNotAllowed(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Head(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeText {
		t.Fatalf("HEAD content type = %q, want %q", ct, ContentTypeText)
	}
	var body bytes.Buffer
	if _, _ = body.ReadFrom(resp.Body); body.Len() != 0 {
		t.Fatalf("HEAD returned a body: %q", body.String())
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", post.StatusCode)
	}
	if allow := post.Header.Get("Allow"); allow != "GET, HEAD" {
		t.Fatalf("Allow header = %q", allow)
	}
}

// TestLabeledUpdateZeroAllocs is the acceptance gate for the labeled
// hot path: after a label set is interned, With + update must not
// allocate.
func TestLabeledUpdateZeroAllocs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hot_counter")
	bytes := r.CounterVec("hot_bytes")
	hv := r.HistogramVec("hot_hist")
	l := Labels{Home: "h1", Speaker: "echo", Profile: "none"}
	cv.With(l)
	bytes.With(l)
	hv.With(l)

	allocs := testing.AllocsPerRun(1000, func() {
		cv.With(l).Inc()
		bytes.With(l).Add(7)
		hv.With(l).ObserveExemplar(3*time.Millisecond, 99)
	})
	if allocs != 0 {
		t.Fatalf("labeled hot-path update allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	r := NewRegistry()
	cv := r.CounterVec("bench_counter")
	l := Labels{Home: "h1", Speaker: "echo", Profile: "none"}
	cv.With(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.With(l).Inc()
	}
}

func BenchmarkHistogramVecObserveExemplar(b *testing.B) {
	r := NewRegistry()
	hv := r.HistogramVec("bench_hist")
	l := Labels{Home: "h1", Stage: "decision"}
	hv.With(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv.With(l).ObserveExemplar(3*time.Millisecond, uint64(i)+1)
	}
}
