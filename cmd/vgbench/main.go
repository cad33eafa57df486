// Command vgbench regenerates every table and figure of the paper's
// evaluation from the simulation. Each experiment prints in roughly
// the layout the paper uses, so results can be compared side by side
// (see EXPERIMENTS.md for the recorded comparison).
//
// Usage:
//
//	vgbench -exp all
//	vgbench -exp table2 -seed 7
//	vgbench -exp fig10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"voiceguard/internal/cliutil"
	"voiceguard/internal/corpus"
	"voiceguard/internal/faults"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/metrics"
	"voiceguard/internal/netem"
	"voiceguard/internal/obs"
	"voiceguard/internal/parallel"
	"voiceguard/internal/radio"
	"voiceguard/internal/report"
	"voiceguard/internal/scenario"
	"voiceguard/internal/stats"
	"voiceguard/internal/trace"
	"voiceguard/internal/wireload"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig3|fig4|fig6|fig7|fig8|fig9|fig10|corpus|faults|fleet|all")
		seed        = flag.Int64("seed", 1, "simulation seed")
		fault       = flag.String("fault", "all", "fault profile for -exp faults: all|"+strings.Join(faults.ProfileNames(), "|"))
		days        = flag.Int("days", 7, "days per protection experiment")
		homes       = flag.Int("homes", 64, "homes for the multi-tenant fleet experiment")
		invocations = flag.Int("invocations", 134, "invocations for the recognition study")
		queries     = flag.Int("queries", 100, "invocations per delay study")
		wireTCP     = flag.Int("wire-tcp", 96, "TCP sessions for the wire-plane load experiment")
		csvDir      = flag.String("csv", "", "also write figure data as CSV files into this directory")
		logLevel    = flag.String("log-level", "off", "structured log level: off|debug|info|warn|error")
		logFormat   = flag.String("log-format", "text", "structured log format: text|json")
		traceOut    = flag.String("trace-out", "", "write every recorded span to this JSONL file")
		jsonOut     = flag.String("json", "", "write per-experiment wall time, allocations, and pct_* quality metrics to this JSON file")
		metricsOut  = flag.String("metrics-out", "", "write the labeled metrics snapshot (JSON envelope with bucket bounds) to this file")
		sloOut      = flag.String("slo-out", "", "write the SLO evaluation report to this file")
	)
	flag.Parse()

	// Invalid flag values are usage errors: reject them up front with
	// usage and exit 2 (the vgproxy standard), before any work starts.
	if err := cliutil.FirstError(
		cliutil.OneOf("-exp", *exp, append(append([]string{}, experimentOrder...), "all")...),
		cliutil.OneOf("-fault", *fault, append([]string{"all"}, faults.ProfileNames()...)...),
		cliutil.Positive("-days", *days),
		cliutil.Positive("-homes", *homes),
		cliutil.Positive("-invocations", *invocations),
		cliutil.Positive("-queries", *queries),
		cliutil.Positive("-wire-tcp", *wireTCP),
	); err != nil {
		fmt.Fprintln(os.Stderr, "vgbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	closeTrace, err := trace.SetupFromFlags(trace.Default, *logLevel, *logFormat, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgbench:", err)
		os.Exit(2)
	}
	defer func() { _ = closeTrace() }()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "vgbench:", err)
			os.Exit(1)
		}
	}
	csvInto = *csvDir
	if err := run(*exp, *seed, *days, *invocations, *queries, *homes, *wireTCP, *fault); err != nil {
		fmt.Fprintln(os.Stderr, "vgbench:", err)
		os.Exit(1)
	}
	// The metrics table makes every bench run double as regression
	// evidence: counter and latency drift shows up in the diff. The
	// snapshot is taken once so the printed table, the SLO report, and
	// the -metrics-out/-slo-out artifacts agree.
	snap := metrics.Default.Snapshot()
	results := obs.Evaluate(snap, obs.DefaultObjectives())
	fmt.Println("\n== slo ==")
	_ = obs.WriteReport(os.Stdout, results)
	fmt.Println("\n== metrics ==")
	_ = metrics.WriteTable(os.Stdout, snap)

	if err := writeExitArtifacts(*metricsOut, *sloOut, snap, results); err != nil {
		fmt.Fprintln(os.Stderr, "vgbench:", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := writeBenchJSON(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "vgbench:", err)
			os.Exit(1)
		}
	}
}

// writeExitArtifacts persists the labeled snapshot and the SLO report
// when the corresponding flags are set.
func writeExitArtifacts(metricsOut, sloOut string, snap metrics.Snapshot, results []obs.SLOResult) error {
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := metrics.WriteJSON(f, snap); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if sloOut != "" {
		f, err := os.Create(sloOut)
		if err != nil {
			return err
		}
		if err := obs.WriteReport(f, results); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// benchRecord is one experiment's entry in the -json output: wall
// time, allocation counts read from the runtime (process-wide deltas,
// like a benchmark's allocs/op at one iteration), and the same pct_*
// quality metrics the bench_test.go benchmarks report.
type benchRecord struct {
	Name     string             `json:"name"`
	NsPerOp  int64              `json:"ns_per_op"`
	AllocsOp uint64             `json:"allocs_per_op"`
	BytesOp  uint64             `json:"bytes_per_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

var (
	benchRecords  []benchRecord
	currentRecord *benchRecord
)

// recordMetric attaches a pct_* quality metric to the experiment
// currently being timed. Outside a timed experiment it is a no-op.
func recordMetric(name string, value float64) {
	if currentRecord == nil {
		return
	}
	if currentRecord.Metrics == nil {
		currentRecord.Metrics = make(map[string]float64)
	}
	currentRecord.Metrics[name] = value
}

// timed runs one experiment while recording wall time and allocation
// deltas for the -json artifact.
func timed(name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := benchRecord{Name: name}
	currentRecord = &rec
	start := time.Now()
	err := fn()
	rec.NsPerOp = time.Since(start).Nanoseconds()
	currentRecord = nil
	runtime.ReadMemStats(&after)
	rec.AllocsOp = after.Mallocs - before.Mallocs
	rec.BytesOp = after.TotalAlloc - before.TotalAlloc
	if err == nil {
		benchRecords = append(benchRecords, rec)
	}
	return err
}

func writeBenchJSON(path string) error {
	payload := struct {
		GoVersion   string        `json:"go_version"`
		GOMAXPROCS  int           `json:"gomaxprocs"`
		Workers     int           `json:"workers"`
		Experiments []benchRecord `json:"experiments"`
	}{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     parallel.Workers(),
		Experiments: benchRecords,
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// csvInto, when non-empty, is the directory figure CSVs are written
// into alongside the text output.
var csvInto string

// writeCSV writes one CSV artifact when -csv is set.
func writeCSV(name string, write func(w *os.File) error) error {
	if csvInto == "" {
		return nil
	}
	f, err := os.Create(csvInto + "/" + name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// experimentOrder lists every experiment in the order "-exp all" runs
// them; it doubles as the valid value set for -exp flag validation.
var experimentOrder = []string{
	"table1", "table2", "table3", "table4",
	"fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "corpus",
	"attacks", "robustness", "sensitivity", "faults", "homeday", "fleet",
	"wire",
}

func run(exp string, seed int64, days, invocations, queries, homes, wireTCP int, fault string) error {
	experiments := map[string]func() error{
		"table1": func() error { return table1(invocations, seed) },
		"table2": func() error {
			return rssiTable("Table II (two-floor house)", floorplan.House(), twoPhones(), days, seed)
		},
		"table3": func() error {
			return rssiTable("Table III (two-bedroom apartment)", floorplan.Apartment(), twoPhones(), days, seed)
		},
		"table4":      func() error { return rssiTable("Table IV (office)", floorplan.Office(), watchOnly(), days, seed) },
		"fig3":        func() error { return fig3(seed) },
		"fig4":        fig4,
		"fig6":        func() error { return fig67(seed, queries, true) },
		"fig7":        func() error { return fig67(seed, queries, false) },
		"fig8":        func() error { return maps("Fig. 8", "A", seed) },
		"fig9":        func() error { return maps("Fig. 9", "B", seed) },
		"fig10":       func() error { return fig10(seed) },
		"corpus":      func() error { return corpusAnalysis(seed, queries) },
		"attacks":     func() error { return attackStudy(seed) },
		"robustness":  func() error { return robustness(seed) },
		"sensitivity": func() error { return sensitivity(days, seed) },
		"faults":      func() error { return faultStudy(days, seed, fault) },
		"homeday":     func() error { return homeDayThroughput(days, seed) },
		"fleet":       func() error { return fleetThroughput(homes, days, seed) },
		"wire":        func() error { return wireLoad(wireTCP, seed) },
	}

	if exp == "all" {
		for _, name := range experimentOrder {
			if err := timed(name, experiments[name]); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := experiments[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return timed(exp, fn)
}

func twoPhones() []scenario.DeviceSpec {
	return []scenario.DeviceSpec{
		{ID: "pixel5", Hardware: radio.Pixel5},
		{ID: "pixel4a", Hardware: radio.Pixel4a},
	}
}

func watchOnly() []scenario.DeviceSpec {
	return []scenario.DeviceSpec{{ID: "watch4", Hardware: radio.GalaxyWatch4}}
}

func table1(invocations int, seed int64) error {
	res := scenario.TrafficRecognition(invocations, seed)
	recordMetric("pct_accuracy", 100*res.Confusion.Accuracy())
	recordMetric("pct_precision", 100*res.Confusion.Precision())
	recordMetric("pct_recall", 100*res.Confusion.Recall())
	fmt.Print(report.Table1(res))
	return nil
}

// rssiTable runs the four columns of one of Tables II-IV. The columns
// are independent seeded runs sharing only the (read-safe) plan, so
// they fan out across the parallel worker pool; column order and
// values match the original serial loop.
func rssiTable(title string, plan *floorplan.Plan, devices []scenario.DeviceSpec, days int, seed int64) error {
	cols := []struct {
		speaker scenario.SpeakerKind
		spot    string
	}{
		{scenario.Echo, "A"}, {scenario.Echo, "B"},
		{scenario.GHM, "A"}, {scenario.GHM, "B"},
	}
	columns, err := parallel.MapErr(len(cols), func(i int) (*scenario.Outcome, error) {
		return scenario.Run(scenario.Config{
			Plan:    plan,
			Spot:    cols[i].spot,
			Speaker: cols[i].speaker,
			Devices: devices,
			Days:    days,
			Seed:    seed,
		})
	})
	if err != nil {
		return err
	}
	var overall stats.Confusion
	for _, out := range columns {
		overall.Merge(out.Confusion)
	}
	recordMetric("pct_accuracy", 100*overall.Accuracy())
	recordMetric("pct_precision", 100*overall.Precision())
	recordMetric("pct_recall", 100*overall.Recall())
	fmt.Print(report.RSSITable(title, columns))
	return nil
}

func fig3(seed int64) error {
	fmt.Print(report.Fig3(scenario.Fig3Trace(seed)))
	return nil
}

func fig4() error {
	cases, err := scenario.HoldReleaseDrop(1500 * time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Print(report.Fig4(cases))
	return nil
}

func fig67(seed int64, queries int, caseSplit bool) error {
	studies, err := scenario.QueryDelayStudies([]scenario.SpeakerKind{scenario.Echo, scenario.GHM}, queries, seed)
	if err != nil {
		return err
	}
	echo, ghm := studies[0], studies[1]
	recordMetric("pct_echo_under2s", 100*echo.Under2s)
	recordMetric("pct_ghm_under2s", 100*ghm.Under2s)
	recordMetric("pct_no_delay", 100*float64(echo.CaseA)/float64(echo.CaseA+echo.CaseB))
	if caseSplit {
		fmt.Print(report.Fig6(studies))
		return nil
	}
	fmt.Print(report.Fig7(studies))
	if err := writeCSV("fig7_echo.csv", func(w *os.File) error { return report.WriteDelayCSV(w, echo) }); err != nil {
		return err
	}
	return writeCSV("fig7_ghm.csv", func(w *os.File) error { return report.WriteDelayCSV(w, ghm) })
}

// maps prints the RSSI map of each testbed for one deployment spot.
func maps(figure, spot string, seed int64) error {
	cases := []struct {
		label string
		plan  *floorplan.Plan
		dev   radio.Device
	}{
		{label: "two-floor house (Pixel 5)", plan: floorplan.House(), dev: radio.Pixel5},
		{label: "apartment (Pixel 5)", plan: floorplan.Apartment(), dev: radio.Pixel5},
		{label: "office (Galaxy Watch4)", plan: floorplan.Office(), dev: radio.GalaxyWatch4},
	}
	for i, c := range cases {
		entries, err := scenario.RSSIMap(c.plan, spot, c.dev, seed+int64(i))
		if err != nil {
			return err
		}
		threshold, err := scenario.MapThreshold(c.plan, spot, c.dev, seed+int64(i))
		if err != nil {
			return err
		}
		fmt.Print(report.Fig8(fmt.Sprintf("%s: %s, speaker spot %s", figure, c.label, spot), entries, threshold))
		fmt.Println()
		name := fmt.Sprintf("%s_%s_spot%s.csv", map[string]string{"Fig. 8": "fig8", "Fig. 9": "fig9"}[figure], c.plan.Name, spot)
		if err := writeCSV(name, func(w *os.File) error { return report.WriteRSSIMapCSV(w, entries) }); err != nil {
			return err
		}
	}
	return nil
}

func fig10(seed int64) error {
	studies, err := scenario.Fig10Cases(seed)
	if err != nil {
		return err
	}
	var acc float64
	for _, study := range studies {
		acc += study.Accuracy
	}
	recordMetric("pct_accuracy", 100*acc/float64(len(studies)))
	fmt.Print(report.Fig10(studies))
	for i, study := range studies {
		name := fmt.Sprintf("fig10_case%d.csv", i+1)
		if err := writeCSV(name, func(w *os.File) error { return report.WriteTracePointsCSV(w, study) }); err != nil {
			return err
		}
	}
	return nil
}

func attackStudy(seed int64) error {
	outcomes, err := scenario.AttackVectorStudy(27, seed)
	if err != nil {
		return err
	}
	fmt.Print(report.AttackTable(outcomes))
	return nil
}

func robustness(seed int64) error {
	points := scenario.RecognitionUnderImpairment(100, []netem.Config{
		{},
		{LossRate: 0.01},
		{LossRate: 0.05},
		{LossRate: 0.10},
		{LossRate: 0.30},
		{DuplicateRate: 0.10, JitterMax: 20 * time.Millisecond},
		{LossRate: 0.05, DuplicateRate: 0.05, JitterMax: 50 * time.Millisecond, SwapRate: 0.05},
	}, seed)
	fmt.Print(report.RobustnessTable(points))
	return nil
}

func sensitivity(days int, seed int64) error {
	points, err := scenario.NoiseSensitivity([]float64{0.5, 1, 2, 4, 8}, days, seed)
	if err != nil {
		return err
	}
	fmt.Print(report.SensitivityTable(points))
	return nil
}

// faultStudy re-runs the protection protocol under push-channel fault
// profiles. profile "all" sweeps the standard set; naming one profile
// runs just the clean baseline and that profile (the bench-smoke
// configuration).
func faultStudy(days int, seed int64, profile string) error {
	profiles := faults.Profiles()
	if profile != "all" {
		p, ok := faults.ByName(profile)
		if !ok {
			return fmt.Errorf("unknown fault profile %q", profile)
		}
		profiles = []faults.Profile{faults.None(), p}
	}
	points, err := scenario.FaultStudy(scenario.FaultStudyConfig{
		Profiles: profiles,
		Days:     days,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	clean, worst := points[0].Confusion.Accuracy(), points[0].Confusion.Accuracy()
	for _, pt := range points[1:] {
		if a := pt.Confusion.Accuracy(); a < worst {
			worst = a
		}
	}
	recordMetric("pct_accuracy_clean", 100*clean)
	recordMetric("pct_accuracy_worst_profile", 100*worst)
	fmt.Print(report.FaultTable(points))
	return nil
}

// homeDayThroughput measures end-to-end simulator throughput: three
// same-seed protection runs of the house testbed back to back (the
// steady-state regime, with the deterministic memo layers warm after
// the first run), reported as simulated home-days per wall-clock
// second. The bench gate tracks home_days_per_sec for regressions.
func homeDayThroughput(days int, seed int64) error {
	const iterations = 3
	plan := floorplan.House()
	cfg := scenario.Config{
		Plan:    plan,
		Spot:    "A",
		Speaker: scenario.Echo,
		Devices: twoPhones(),
		Days:    days,
		Seed:    seed,
	}
	var last *scenario.Outcome
	start := time.Now()
	for i := 0; i < iterations; i++ {
		out, err := scenario.Run(cfg)
		if err != nil {
			return err
		}
		last = out
	}
	elapsed := time.Since(start)
	perSec := float64(days*iterations) / elapsed.Seconds()
	recordMetric("home_days_per_sec", perSec)
	recordMetric("pct_accuracy", 100*last.Confusion.Accuracy())
	fmt.Printf("== home-day throughput ==\n%d runs x %d days in %v: %.1f home-days/sec (accuracy %.1f%%)\n",
		iterations, days, elapsed.Round(time.Millisecond), perSec, 100*last.Confusion.Accuracy())
	return nil
}

// fleetThroughput runs the multi-tenant fleet engine — N heterogeneous
// homes as tenants of one sharded manager — and reports homes/sec.
// After the timed window, a deterministic sample of homes is re-run
// through plain sequential scenario.Run and compared deep-equal: the
// bit-identity spot check behind pct_verified_identical (a mismatch
// fails the experiment, and therefore the bench gate, loudly).
func fleetThroughput(homes, days int, seed int64) error {
	cfg := scenario.FleetConfig{Homes: homes, Days: days, Seed: seed}
	start := time.Now()
	out, err := scenario.Fleet(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	const verifySample = 2
	if err := scenario.FleetVerify(out, verifySample); err != nil {
		return err
	}
	recordMetric("homes_per_sec", float64(homes)/elapsed.Seconds())
	recordMetric("home_days_per_sec", float64(out.HomeDays)/elapsed.Seconds())
	recordMetric("pct_accuracy", 100*out.Confusion.Accuracy())
	recordMetric("pct_verified_identical", 100)
	fmt.Print(report.FleetTable(out, elapsed))
	return nil
}

// wireLoad is the wire-plane load experiment: a scaled-down vgload
// run (Echo sessions through a real StartLiveGuard into the cloud
// emulator, stall floods against a deliberately small global budget)
// sized to finish in seconds so it can ride the bench gate. The
// structural outcomes — budget enforced, backpressure observed, every
// held command resolved — are recorded as exact-match pct_* metrics,
// and a broken invariant (wireload.Outcome.Check) fails the
// experiment; setup rate and latency ride the banded fields.
func wireLoad(tcp int, seed int64) error {
	out, err := wireload.Run(wireload.Config{
		TCPSessions:     tcp,
		IdleGap:         40 * time.Millisecond,
		BurstEvery:      150 * time.Millisecond,
		BaselineBursts:  3,
		MeasureBursts:   4,
		DecisionMean:    25 * time.Millisecond,
		DecisionJitter:  10 * time.Millisecond,
		HoldDeadline:    400 * time.Millisecond,
		BudgetBytes:     128 << 10,
		DropFrac:        0.15,
		StallFrac:       0.25,
		StallWindow:     1200 * time.Millisecond,
		Seed:            seed,
		DialConcurrency: 64,
	})
	if err != nil {
		return err
	}
	recordMetric("sessions_per_sec", out.SessionsPerSec)
	// The added-latency guardrail is floored: sub-floor values are
	// scheduling noise, and a floor keeps the lower-is-better band
	// from failing on any positive measurement against a ~0 baseline.
	added := out.AddedP99Ms
	if added < 5 {
		added = 5
	}
	recordMetric("added_latency_p99_ms", added)
	peak := out.HoldBytesPeak
	if out.BudgetUsedPeak > peak {
		peak = out.BudgetUsedPeak
	}
	recordMetric("hold_bytes_peak", float64(peak))
	recordMetric("pct_hold_within_budget", bool100(out.WithinBudget))
	recordMetric("pct_backpressure_observed", bool100(out.Backpressured))
	resolvedPct := 0.0
	if out.BurstsHeld > 0 {
		resolvedPct = 100 * float64(out.BurstsReleased+out.BurstsDropped) / float64(out.BurstsHeld)
	}
	recordMetric("pct_bursts_resolved", resolvedPct)
	fmt.Print(out.Text())
	return out.Check()
}

// bool100 renders a structural pass/fail as an exact-match metric.
func bool100(ok bool) float64 {
	if ok {
		return 100
	}
	return 0
}

func corpusAnalysis(seed int64, queries int) error {
	studies, err := scenario.QueryDelayStudies([]scenario.SpeakerKind{scenario.Echo, scenario.GHM}, queries, seed)
	if err != nil {
		return err
	}
	echo, ghm := studies[0], studies[1]
	analyses := []scenario.CorpusAnalysis{
		scenario.AnalyzeCorpus(corpus.Alexa(), time.Duration(echo.Summary.Mean*float64(time.Second))),
		scenario.AnalyzeCorpus(corpus.Google(), time.Duration(ghm.Summary.Mean*float64(time.Second))),
	}
	recordMetric("pct_no_delay", 100*analyses[0].NoDelayAtMean)
	fmt.Print(report.CorpusTable(analyses))
	return nil
}
