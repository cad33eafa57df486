package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
)

// fleetRegistry builds a three-home snapshot: h2 is the slow home
// (worst p99), h3 the degraded one, h1 healthy.
func fleetRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	hv := r.HistogramVec(decision.MetricLatency)
	for i := 0; i < 20; i++ {
		hv.With(metrics.Labels{Home: "h1"}).Observe(2 * time.Millisecond)
		hv.With(metrics.Labels{Home: "h2"}).Observe(800 * time.Millisecond)
		hv.With(metrics.Labels{Home: "h3"}).Observe(5 * time.Millisecond)
	}
	cv := r.CounterVec(guard.MetricVerdicts)
	cv.With(metrics.Labels{Home: "h1", Verdict: guard.VerdictAllow}).Add(15)
	cv.With(metrics.Labels{Home: "h1", Verdict: guard.VerdictBlock}).Add(5)
	cv.With(metrics.Labels{Home: "h2", Verdict: guard.VerdictAllow}).Add(10)
	cv.With(metrics.Labels{Home: "h3", Verdict: guard.VerdictBlock}).Add(20)
	r.CounterVec(guard.MetricDegraded).With(metrics.Labels{Home: "h3"}).Add(7)
	return r
}

func TestFleetSummary(t *testing.T) {
	rows := FleetSummary(fleetRegistry().Snapshot())
	if len(rows) != 3 {
		t.Fatalf("FleetSummary returned %d rows, want 3", len(rows))
	}
	if rows[0].Home != "h2" {
		t.Fatalf("worst home = %q, want h2 (slowest p99); rows=%+v", rows[0].Home, rows)
	}
	for _, r := range rows {
		switch r.Home {
		case "h1":
			if r.Verdicts != 20 || r.Blocked != 5 || r.Degraded != 0 || r.Commands != 20 {
				t.Errorf("h1 row = %+v", r)
			}
			if r.DecisionP99 > 10*time.Millisecond {
				t.Errorf("h1 p99 = %v, want fast", r.DecisionP99)
			}
		case "h2":
			if r.DecisionP99 < 500*time.Millisecond {
				t.Errorf("h2 p99 = %v, want slow", r.DecisionP99)
			}
		case "h3":
			if r.Degraded != 7 || r.Blocked != 20 {
				t.Errorf("h3 row = %+v", r)
			}
		}
	}
}

// TestFleetSummaryMergesProfiles checks one home's latency series
// under several profile labels merge into a single row.
func TestFleetSummaryMergesProfiles(t *testing.T) {
	r := metrics.NewRegistry()
	hv := r.HistogramVec(decision.MetricLatency)
	hv.With(metrics.Labels{Home: "h1", Profile: "none"}).ObserveN(time.Millisecond, 2)
	hv.With(metrics.Labels{Home: "h1", Profile: "drop20"}).ObserveN(time.Second, 98)
	rows := FleetSummary(r.Snapshot())
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want one merged h1 row", rows)
	}
	if rows[0].Commands != 100 {
		t.Fatalf("merged count = %d, want 100", rows[0].Commands)
	}
	if rows[0].DecisionP99 < 500*time.Millisecond {
		t.Fatalf("merged p99 = %v, want the slow series visible", rows[0].DecisionP99)
	}
}

// TestFleetSummaryOverflowRow keeps the cardinality overflow bucket
// visible as its own row.
func TestFleetSummaryOverflowRow(t *testing.T) {
	r := metrics.NewRegistry()
	hv := r.HistogramVec(decision.MetricLatency)
	for i := 0; i < metrics.DefaultMaxCardinality+2; i++ {
		hv.With(metrics.Labels{Home: fmt.Sprintf("h%d", i)}).Observe(time.Millisecond)
	}
	rows := FleetSummary(r.Snapshot())
	var sawOverflow bool
	for _, row := range rows {
		if row.Home == metrics.LabelOverflow {
			sawOverflow = true
			if row.Commands != 2 {
				t.Errorf("overflow row absorbed %d observations, want 2", row.Commands)
			}
		}
	}
	if !sawOverflow {
		t.Fatalf("no overflow row in %+v", rows)
	}
}

// TestFleetSummaryDeterministicOrder pins the ranking against Go's
// randomized map iteration: with every home tied on p99 and degraded
// count, ties break on home ID ascending, and repeated summaries of
// the same snapshot are identical row for row — including the top-K
// cut a renderer takes. This is the regression test for the map-order
// escape vglint's maporder rule flagged here.
func TestFleetSummaryDeterministicOrder(t *testing.T) {
	r := metrics.NewRegistry()
	hv := r.HistogramVec(decision.MetricLatency)
	dv := r.CounterVec(guard.MetricDegraded)
	homes := []string{"h07", "h03", "h11", "h01", "h09", "h05", "h02", "h10", "h04", "h08", "h06", "h12"}
	for _, home := range homes {
		// Identical series per home: p99 and degraded tie everywhere.
		hv.With(metrics.Labels{Home: home}).ObserveN(3*time.Millisecond, 10)
		dv.With(metrics.Labels{Home: home}).Add(2)
	}
	// One genuinely slow home must still rank first.
	hv.With(metrics.Labels{Home: "h99"}).ObserveN(900*time.Millisecond, 10)

	snap := r.Snapshot()
	first := FleetSummary(snap)
	if len(first) != len(homes)+1 {
		t.Fatalf("rows = %d, want %d", len(first), len(homes)+1)
	}
	if first[0].Home != "h99" {
		t.Fatalf("worst home = %q, want h99", first[0].Home)
	}
	for i, row := range first[1:] {
		want := "h" + string(rune('0'+(i+1)/10)) + string(rune('0'+(i+1)%10))
		if row.Home != want {
			t.Fatalf("tied rows out of home order at %d: got %q, want %q (rows=%+v)", i+1, row.Home, want, first)
		}
	}
	for run := 0; run < 20; run++ {
		rows := FleetSummary(snap)
		for i := range rows {
			if rows[i] != first[i] {
				t.Fatalf("run %d diverged at row %d: %+v vs %+v", run, i, rows[i], first[i])
			}
		}
	}
}

func TestWriteTopFleetSection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTop(&buf, TopView{Snapshot: fleetRegistry().Snapshot(), TopK: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== fleet (3 homes, worst first) ==") {
		t.Fatalf("no fleet section in:\n%s", out)
	}
	// TopK=2 keeps the two worst homes and drops the healthy one from
	// the fleet table (it still appears in the per-family sections).
	fleetSection := out[strings.Index(out, "== fleet"):]
	fleetSection = fleetSection[:strings.Index(fleetSection, "\n\n")+1]
	for _, want := range []string{"h2", "h3"} {
		if !strings.Contains(fleetSection, want) {
			t.Errorf("fleet section missing %q:\n%s", want, fleetSection)
		}
	}
	if strings.Contains(fleetSection, "h1") {
		t.Errorf("fleet section should rank only top-K homes:\n%s", fleetSection)
	}
}

// TestWriteTopSingleHomeNoFleetSection: one home's snapshot renders
// the classic single-home layout.
func TestWriteTopSingleHomeNoFleetSection(t *testing.T) {
	r := metrics.NewRegistry()
	r.HistogramVec(decision.MetricLatency).With(metrics.Labels{Home: "h1"}).Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := WriteTop(&buf, TopView{Snapshot: r.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "== fleet") {
		t.Fatalf("single-home view grew a fleet section:\n%s", buf.String())
	}
}
