// Command vgperf is the repository benchmark. One process runs one
// workload — two simulated home fleets (homes_cold, homes_warm) and a
// held-command loop through the live wire-plane guard (wire_guard) —
// checks every op's output, and prints every metric by name and unit.
// Each layer is timed from outside: the benchmark wraps the public
// calls it makes and reads per-op deltas of the program's own
// metrics.Default counters. See NOTES.md for why each workload exists
// and what is deliberately left unmeasured.
//
// Usage, from the repository root:
//
//	bash _vgperf/run.sh --workload homes_warm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the final line of standard output carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// and the spans are written as a Chrome trace_event file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of either plane sees; every workload
// reports all of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_sec", "1/s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"accuracy_pct", "%"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// pass through reports 0. op_ms_tail is an end-to-end latency, but it
// is reported here, ungated: on the wire it follows the host's stall
// regime (p99 read 1.1 ms in quiet minutes and up to 8.4 ms in noisy
// ones for the same code), so a bound on it would pass or fail
// changes at random.
var perLayer = []metricDef{
	{"op_ms_tail", "ms"},
	{"scenario.setup_ms_p50", "ms"},
	{"scenario.setup_ms_tail", "ms"},
	{"scenario.setup_share_pct", "%"},
	{"scenario.day_ms_p50", "ms"},
	{"scenario.day_ms_tail", "ms"},
	{"fleet.register_us", "us"},
	{"fleet.round_ms_p50", "ms"},
	{"fleet.rounds_per_op", "count"},
	{"parallel.barrier_idle_pct", "%"},
	{"push.requests_per_op", "count"},
	{"decision.rssi_queries_per_op", "count"},
	{"guard.spikes_per_op", "count"},
	{"guard.commands_per_op", "count"},
	{"recognize.signature_matches_per_op", "count"},
	{"voiceguard.hold_ms_p50", "ms"},
	{"voiceguard.hold_ms_tail", "ms"},
	{"voiceguard.release_ms_p50", "ms"},
	{"voiceguard.release_ms_tail", "ms"},
	{"proxy.session_setup_ms", "ms"},
	{"proxy.holds_per_op", "count"},
	{"proxy.bytes_in_per_op", "B"},
	{"proxy.sessions_per_op", "count"},
	{"proxy.hold_budget_waits", "count"},
	{"emul.dial_ms", "ms"},
	{"emul.aborts_per_op", "count"},
	{"emul.baseline_ms_p50", "ms"},
	{"gen.late_ms_tail", "ms"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.goroutines_end", "count"},
	{"op.samples", "count"},
	{"op.tail_percentile", "%"},
	{"op.failed_pct", "%"},
	{"trace.residue_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	// invalid lists run-level check failures; any entry makes the
	// whole run incorrect, whatever the per-op counts say.
	invalid []string
	values  map[string]float64
	spans   []span
}

func (r *report) invalidf(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options, io.Writer) (*report, error){
	"homes_cold": func(o options, w io.Writer) (*report, error) { return runSim(defaultSim(o, true), w) },
	"homes_warm": func(o options, w io.Writer) (*report, error) { return runSim(defaultSim(o, false), w) },
	"wire_guard": func(o options, w io.Writer) (*report, error) { return runWire(defaultWire(o), w) },
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "homes_cold | homes_warm | wire_guard")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "vgperf: need --workload homes_cold|homes_warm|wire_guard, --seconds > 0, --trace 0|1")
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgperf:", err)
		os.Exit(1)
	}
	if o.trace {
		path := filepath.Join(".bench_build", "spans-"+o.workload+".json")
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "vgperf: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	res := rep.result(o.trace)
	for _, msg := range rep.invalid {
		fmt.Println("INVALID:", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result builds the final JSON line: the end-to-end metrics, or the
// per-layer ones on a traced run.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.invalid) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}
