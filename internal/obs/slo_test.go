package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/metrics"
)

func TestEvaluateLatencyObjective(t *testing.T) {
	r := metrics.NewRegistry()
	h := r.Histogram("svc_latency_seconds")
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(5 * time.Second) // one tail breach

	obj := Objective{
		Name:     "svc-p99",
		Kind:     SLOLatency,
		Metric:   "svc_latency_seconds",
		Quantile: 0.99,
		Max:      200 * time.Millisecond,
	}
	res := Evaluate(r.Snapshot(), []Objective{obj})[0]
	if res.Count != 100 {
		t.Fatalf("count = %d, want 100", res.Count)
	}
	if res.Compliance != 0.99 {
		t.Fatalf("compliance = %v, want 0.99", res.Compliance)
	}
	// Exactly on target: 1% bad against a 1% budget burns at 1.0 and
	// still counts as healthy.
	if !res.Healthy {
		t.Fatalf("result unhealthy at exactly target compliance: %+v", res)
	}
	if res.BurnRate < 0.99 || res.BurnRate > 1.01 {
		t.Fatalf("burn rate = %v, want ~1.0", res.BurnRate)
	}

	// One more breach pushes compliance under target.
	h.Observe(5 * time.Second)
	res = Evaluate(r.Snapshot(), []Objective{obj})[0]
	if res.Healthy {
		t.Fatalf("result healthy with compliance %v under target", res.Compliance)
	}
}

func TestEvaluateLabelFilter(t *testing.T) {
	r := metrics.NewRegistry()
	hv := r.HistogramVec("decision_latency_seconds")
	hv.With(metrics.Labels{Home: "h1"}).Observe(time.Millisecond)
	for i := 0; i < 10; i++ {
		hv.With(metrics.Labels{Home: "h2"}).Observe(10 * time.Second)
	}

	obj := Objective{
		Name:   "h1-p99",
		Kind:   SLOLatency,
		Metric: "decision_latency_seconds",
		Labels: metrics.Labels{Home: "h1"},
		Max:    time.Second,
	}
	res := Evaluate(r.Snapshot(), []Objective{obj})[0]
	if res.Count != 1 || !res.Healthy {
		t.Fatalf("h1 filter leaked other homes: %+v", res)
	}

	obj.Labels = metrics.Labels{Home: "h2"}
	res = Evaluate(r.Snapshot(), []Objective{obj})[0]
	if res.Count != 10 || res.Healthy {
		t.Fatalf("h2 series should breach: %+v", res)
	}
}

func TestEvaluateCeilingAndFloor(t *testing.T) {
	r := metrics.NewRegistry()
	r.Gauge("queue_bytes").Set(900)

	ceiling := Objective{Name: "queue", Kind: SLOCeiling, Metric: "queue_bytes", Ceiling: 1000}
	res := Evaluate(r.Snapshot(), []Objective{ceiling})
	if !res[0].Healthy || res[0].Value != 900 {
		t.Fatalf("ceiling result = %+v", res[0])
	}

	r.Gauge("queue_bytes").Set(2000)
	res = Evaluate(r.Snapshot(), []Objective{ceiling})
	if res[0].Healthy {
		t.Fatalf("breach not detected: %+v", res[0])
	}
}

func TestWriteReport(t *testing.T) {
	r := metrics.NewRegistry()
	h := r.Histogram("svc_latency_seconds")
	h.Observe(10 * time.Second)
	r.Gauge("queue_bytes").Set(900)
	objs := []Objective{
		{Name: "svc-p99", Kind: SLOLatency, Metric: "svc_latency_seconds", Max: 200 * time.Millisecond},
		{Name: "queue", Kind: SLOCeiling, Metric: "queue_bytes", Ceiling: 1000},
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, Evaluate(r.Snapshot(), objs)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[BREACH] svc-p99") {
		t.Errorf("report missing breach line:\n%s", out)
	}
	if !strings.Contains(out, "[OK    ] queue") {
		t.Errorf("report missing OK line:\n%s", out)
	}
}
