package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/metrics"
)

func TestWriteTop(t *testing.T) {
	r := metrics.NewRegistry()
	r.Gauge(MetricGoroutines).Set(12)
	r.Gauge(MetricHeapBytes).Set(4 << 20)
	cv := r.CounterVec("guard_verdicts")
	cv.With(metrics.Labels{Home: "h1", Verdict: "allow"}).Add(40)
	cv.With(metrics.Labels{Home: "h1", Verdict: "block"}).Add(9)
	h := r.Histogram("decision_latency_seconds")
	h.ObserveExemplar(3*time.Millisecond, 77)
	h.ObserveExemplar(10*time.Second, 1234)

	view := TopView{
		Snapshot: r.Snapshot(),
		SLO: Evaluate(r.Snapshot(), []Objective{
			{Name: "decision-p99", Kind: SLOLatency, Metric: "decision_latency_seconds", Max: 200 * time.Millisecond},
		}),
		Anomalies: []string{"cmd 1234 dropped after 10s hold"},
	}
	var a, b bytes.Buffer
	if err := WriteTop(&a, view); err != nil {
		t.Fatal(err)
	}
	if err := WriteTop(&b, view); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("top view not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		"runtime: goroutines=12",
		"== slo ==",
		"[BREACH] decision-p99",
		`guard_verdicts{home="h1",verdict="allow"}`,
		"== histograms ==",
		"exemplar cmd=1234",
		"== anomalies ==",
		"cmd 1234 dropped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top view missing %q:\n%s", want, out)
		}
	}
	// The histogram row carries a sparkline with at least one bar.
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("no sparkline in output:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]uint64{0, 0, 0}); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	got := sparkline([]uint64{1, 0, 8})
	runes := []rune(got)
	if len(runes) != 3 || runes[1] != ' ' || runes[2] != '█' {
		t.Fatalf("sparkline = %q", got)
	}
}

func TestHealthHandlers(t *testing.T) {
	hsrv := httptest.NewServer(HealthHandler())
	defer hsrv.Close()
	resp, err := http.Get(hsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	ready := false
	rsrv := httptest.NewServer(ReadyHandler(func() bool { return ready }))
	defer rsrv.Close()
	resp, err = http.Get(rsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before ready = %d, want 503", resp.StatusCode)
	}
	ready = true
	resp, err = http.Get(rsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after ready = %d, want 200", resp.StatusCode)
	}

	head, err := http.Head(hsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD healthz = %d, want 200", head.StatusCode)
	}
	post, err := http.Post(hsrv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz = %d, want 405", post.StatusCode)
	}
}
