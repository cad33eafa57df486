package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-test
// checks against the code.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
	check := func(kind string, declared []metricDef, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(file) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(declared), len(file))
			return
		}
		for i, d := range declared {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: code %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

func toySim(cold, trace bool) simConfig {
	c := defaultSim(options{seed: 7, seconds: 0.05, trace: trace}, cold)
	c.homes, c.days, c.setupReps = 6, 1, 1
	return c
}

func toyWire(trace bool) wireConfig {
	c := defaultWire(options{seed: 7, seconds: 0.4, trace: trace})
	c.warmupCmds, c.baselineCmds, c.setupReps = 1, 5, 1
	return c
}

// assertEmitted checks a run's final line: correct, and every declared
// metric present with its unit.
func assertEmitted(t *testing.T, rep *report, traced bool) {
	t.Helper()
	res := rep.result(traced)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("toy run not correct: attempted %d failed %d invalid %v", res.Attempted, res.Failed, rep.invalid)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
	if !traced {
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
			}
		}
	} else if len(rep.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
		t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
	}
}

func TestToyRunsEmitEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, cold := range []bool{true, false} {
			rep, err := runSim(toySim(cold, traced), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			assertEmitted(t, rep, traced)
		}
		rep, err := runWire(toyWire(traced), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		assertEmitted(t, rep, traced)
		if v := rep.values["proxy.holds_per_op"]; traced && v != 1 {
			t.Errorf("proxy.holds_per_op = %v, want 1", v)
		}
	}
}

// A DecisionFunc that releases drop-class commands lets them reach the
// cloud; every such command must fail.
func TestReleasingDropClassFailsOps(t *testing.T) {
	cfg := toyWire(false)
	cfg.policy = func(drop bool) bool { return true }
	var out strings.Builder
	rep, err := runWire(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.result(false).Correct || !strings.Contains(out.String(), "released and reached the cloud") {
		t.Fatalf("releasing drop-class commands went unnoticed: attempted %d failed %d\n%s", rep.attempted, rep.failed, out.String())
	}
}

// Commands sent back to back, closer than the idle gap, merge into the
// previous spike and pass unheld: the run must be rejected.
func TestBackToBackLoopRejectedAsNotHeld(t *testing.T) {
	cfg := toyWire(false)
	cfg.period, cfg.minSpacing = 0, 0
	cfg.timeout = 200 * time.Millisecond
	var out strings.Builder
	rep, err := runWire(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.result(false).Correct || !strings.Contains(out.String(), "not held") ||
		!strings.Contains(strings.Join(rep.invalid, "\n"), "passed unheld") {
		t.Fatalf("back-to-back loop accepted: attempted %d failed %d invalid %v\n%s", rep.attempted, rep.failed, rep.invalid, out.String())
	}
}
