// Command vgsim runs one configurable protection experiment and
// prints its metrics — the building block behind Tables II-IV.
//
// Usage:
//
//	vgsim -testbed house -spot A -speaker echo -days 7 -seed 1
//	vgsim -testbed office -speaker ghm -devices watch4
//	vgsim -testbed house -no-floor-tracking   # the §V-B2 ablation
//	vgsim -dump run.vgc                       # persist the guard's capture
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"voiceguard"
	"voiceguard/internal/cliutil"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/metrics"
	"voiceguard/internal/obs"
	"voiceguard/internal/radio"
	"voiceguard/internal/scenario"
	"voiceguard/internal/trace"
)

func main() {
	var (
		testbed   = flag.String("testbed", "house", "testbed: house|apartment|office")
		spot      = flag.String("spot", "A", "speaker deployment location: A|B")
		speaker   = flag.String("speaker", "echo", "speaker: echo|ghm")
		days      = flag.Int("days", 7, "experiment days")
		seed      = flag.Int64("seed", 1, "simulation seed")
		devices   = flag.String("devices", "pixel5,pixel4a", "owner devices: comma list of pixel5|pixel4a|watch4")
		noTrack   = flag.Bool("no-floor-tracking", false, "disable the floor-level mechanism (ablation)")
		perDevice = flag.Bool("records", false, "print per-command records")
		dump      = flag.String("dump", "", "write the guard's packet capture to this file")
		planFile  = flag.String("plan", "", "run on a custom floor plan (JSON, see -export-plan)")
		exportTo  = flag.String("export-plan", "", "write the selected testbed's floor plan as JSON and exit")
		logLevel  = flag.String("log-level", "off", "structured log level: off|debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "structured log format: text|json")
		traceOut  = flag.String("trace-out", "", "write every recorded span to this JSONL file")
	)
	flag.Parse()

	// Invalid flag values are usage errors: reject them up front with
	// usage and exit 2 (the vgproxy standard), before any work starts.
	checks := []error{
		cliutil.OneOf("-testbed", *testbed, "house", "apartment", "office"),
		cliutil.OneOf("-speaker", *speaker, "echo", "ghm"),
		cliutil.EachOf("-devices", *devices, "pixel5", "pixel4a", "watch4"),
		cliutil.Positive("-days", *days),
	}
	if *planFile == "" {
		// Custom plans name their own spots; only the built-in
		// testbeds are limited to the paper's A/B deployments.
		checks = append(checks, cliutil.OneOf("-spot", *spot, "A", "B"))
	}
	if err := cliutil.FirstError(checks...); err != nil {
		fmt.Fprintln(os.Stderr, "vgsim:", err)
		flag.Usage()
		os.Exit(2)
	}

	closeTrace, err := trace.SetupFromFlags(trace.Default, *logLevel, *logFormat, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgsim:", err)
		os.Exit(2)
	}
	defer func() { _ = closeTrace() }()

	if *exportTo != "" {
		if err := exportPlan(*testbed, *exportTo); err != nil {
			fmt.Fprintln(os.Stderr, "vgsim:", err)
			os.Exit(1)
		}
		fmt.Printf("floor plan written to %s\n", *exportTo)
		return
	}
	if *planFile != "" {
		if err := runCustomPlan(*planFile, *spot, *speaker, *days, *seed, *devices); err != nil {
			fmt.Fprintln(os.Stderr, "vgsim:", err)
			os.Exit(1)
		}
		printMetrics()
		return
	}
	if err := run(*testbed, *spot, *speaker, *days, *seed, *devices, *noTrack, *perDevice, *dump); err != nil {
		fmt.Fprintln(os.Stderr, "vgsim:", err)
		os.Exit(1)
	}
	printMetrics()
}

// printMetrics dumps the SLO evaluation, the guard-wide metrics
// table, and the runtime telemetry at exit, turning every simulation
// run into instrumentation evidence. The SLO and metrics sections are
// deterministic for a seed (the table sorts by name, then label set);
// the runtime sample is taken afterwards so its run-to-run jitter
// stays out of the seed-stable sections.
func printMetrics() {
	snap := metrics.Default.Snapshot()
	fmt.Println("\n== slo ==")
	_ = obs.WriteReport(os.Stdout, obs.Evaluate(snap, obs.DefaultObjectives()))
	fmt.Println("\n== metrics ==")
	_ = metrics.WriteTable(os.Stdout, snap)
	obs.NewRuntime(nil).Collect()
	fmt.Println("\n== runtime ==")
	_ = obs.WriteRuntime(os.Stdout, metrics.Default.Snapshot())
}

// exportPlan dumps a built-in testbed in the custom-plan JSON schema.
func exportPlan(testbed, path string) error {
	var plan *floorplan.Plan
	switch testbed {
	case "house":
		plan = floorplan.House()
	case "apartment":
		plan = floorplan.Apartment()
	case "office":
		plan = floorplan.Office()
	default:
		return fmt.Errorf("unknown testbed %q", testbed)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := floorplan.ToJSON(f, plan); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ownerDevices maps each -devices name to its model, for the built-in
// testbeds, and to its radio hardware, for custom plans.
var ownerDevices = map[string]struct {
	model    voiceguard.DeviceModel
	hardware radio.Device
}{
	"pixel5":  {voiceguard.Pixel5, radio.Pixel5},
	"pixel4a": {voiceguard.Pixel4a, radio.Pixel4a},
	"watch4":  {voiceguard.GalaxyWatch4, radio.GalaxyWatch4},
}

// parseDevices splits the -devices list into device names, each one a
// key of ownerDevices. Empty entries are skipped.
func parseDevices(list string) ([]string, error) {
	var names []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := ownerDevices[name]; !ok {
			return nil, fmt.Errorf("unknown device %q", name)
		}
		names = append(names, name)
	}
	return names, nil
}

// runCustomPlan runs the protection experiment on a user-provided
// floor plan.
func runCustomPlan(path, spot, speaker string, days int, seed int64, devices string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	plan, err := floorplan.FromJSON(f)
	_ = f.Close()
	if err != nil {
		return err
	}

	kind := scenario.Echo
	switch speaker {
	case "echo":
	case "ghm":
		kind = scenario.GHM
	default:
		return fmt.Errorf("unknown speaker %q", speaker)
	}
	names, err := parseDevices(devices)
	if err != nil {
		return err
	}
	specs := make([]scenario.DeviceSpec, 0, len(names))
	for _, name := range names {
		specs = append(specs, scenario.DeviceSpec{ID: name, Hardware: ownerDevices[name].hardware})
	}

	out, err := scenario.Run(scenario.Config{
		Plan:    plan,
		Spot:    spot,
		Speaker: kind,
		Devices: specs,
		Days:    days,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	c := out.Confusion
	fmt.Printf("custom plan %q, spot %s, %d day(s)\n", plan.Name, spot, days)
	fmt.Printf("thresholds:")
	for name, thr := range out.Thresholds {
		fmt.Printf(" %s=%.2f", name, thr)
	}
	fmt.Println()
	fmt.Printf("confusion:  TP=%d FP=%d TN=%d FN=%d\n", c.TP, c.FP, c.TN, c.FN)
	fmt.Printf("accuracy:   %.2f%%  precision: %.2f%%  recall: %.2f%%\n",
		100*c.Accuracy(), 100*c.Precision(), 100*c.Recall())
	return nil
}

func run(testbed, spot, speaker string, days int, seed int64, devices string, noTrack, records bool, dump string) error {
	cfg := voiceguard.ExperimentConfig{
		Spot:                 spot,
		Days:                 days,
		Seed:                 seed,
		DisableFloorTracking: noTrack,
		RecordCapture:        dump != "",
	}

	switch testbed {
	case "house":
		cfg.Testbed = voiceguard.TestbedHouse
	case "apartment":
		cfg.Testbed = voiceguard.TestbedApartment
	case "office":
		cfg.Testbed = voiceguard.TestbedOffice
	default:
		return fmt.Errorf("unknown testbed %q", testbed)
	}

	switch speaker {
	case "echo":
		cfg.Speaker = voiceguard.EchoDot
	case "ghm":
		cfg.Speaker = voiceguard.GoogleHomeMini
	default:
		return fmt.Errorf("unknown speaker %q", speaker)
	}

	names, err := parseDevices(devices)
	if err != nil {
		return err
	}
	for _, name := range names {
		cfg.Devices = append(cfg.Devices, voiceguard.Device{Name: name, Model: ownerDevices[name].model})
	}

	res, err := voiceguard.RunExperiment(cfg)
	if err != nil {
		return err
	}

	if dump != "" {
		f, err := os.Create(dump)
		if err != nil {
			return err
		}
		if err := res.WriteCapture(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("capture written to %s\n", dump)
	}

	fmt.Printf("%s, spot %s, %s, %d day(s), seed %d\n\n", cfg.Testbed, cfg.Spot, cfg.Speaker, days, seed)
	fmt.Printf("thresholds:")
	for name, thr := range res.Thresholds {
		fmt.Printf(" %s=%.2f", name, thr)
	}
	fmt.Println()
	m := res.Metrics
	fmt.Printf("confusion:  TP=%d FP=%d TN=%d FN=%d\n", m.TP, m.FP, m.TN, m.FN)
	fmt.Printf("accuracy:   %.2f%%\n", 100*m.Accuracy)
	fmt.Printf("precision:  %.2f%%\n", 100*m.Precision)
	fmt.Printf("recall:     %.2f%%\n", 100*m.Recall)
	fmt.Printf("mean verification: %.3fs\n", res.MeanVerification.Seconds())

	if records {
		fmt.Println("\nday  kind        verdict   verification  perceived")
		for _, c := range res.Commands {
			kind, verdict := "legit", "allowed"
			if c.Malicious {
				kind = "attack"
			}
			if c.Blocked {
				verdict = "BLOCKED"
			}
			fmt.Printf("%3d  %-10s %-9s %9.3fs %9.3fs\n",
				c.Day, kind, verdict, c.Verification.Seconds(), c.Perceived.Seconds())
		}
	}
	return nil
}
