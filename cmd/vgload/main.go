// Command vgload is the wire-plane load generator: it drives N
// thousand concurrent emulated Echo sessions through a real
// StartLiveGuard into the cloud emulator, with mixed
// hold/release/drop verdicts, a configurable decision-latency
// distribution, hold deadlines, and fault profiles, and reports
// session setup rate, p99 added latency against a no-guard baseline,
// and the hold-memory ceiling under the global HoldBudget. It exits 1
// when the run breaks a structural invariant (wireload.Outcome.Check).
//
// Usage:
//
//	vgload -tcp-sessions 3000 -budget-bytes 1048576
//	vgload -tcp-sessions 64 -fault delay-spike -json wire.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"voiceguard/internal/cliutil"
	"voiceguard/internal/faults"
	"voiceguard/internal/wireload"
)

// config carries the parsed command-line flags through run.
type config struct {
	tcpSessions  int
	idleGap      time.Duration
	burstEvery   time.Duration
	baseline     int
	bursts       int
	decisionMean time.Duration
	decisionJit  time.Duration
	holdDeadline time.Duration
	failClosed   bool
	budgetBytes  int64
	dropFrac     float64
	stallFrac    float64
	stallWindow  time.Duration
	fault        string
	seed         int64
	dialConc     int
	jsonOut      string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.tcpSessions, "tcp-sessions", 256, "concurrent Echo speaker sessions through the guard")
	flag.DurationVar(&cfg.idleGap, "idle-gap", 50*time.Millisecond, "spike separator gap")
	flag.DurationVar(&cfg.burstEvery, "burst-every", 150*time.Millisecond, "pause between a session's commands")
	flag.IntVar(&cfg.baseline, "baseline-bursts", 3, "per-session no-guard baseline commands (0 skips the baseline)")
	flag.IntVar(&cfg.bursts, "measure-bursts", 3, "per-session guarded commands sampled for latency")
	flag.DurationVar(&cfg.decisionMean, "decision-mean", 25*time.Millisecond, "mean decision latency")
	flag.DurationVar(&cfg.decisionJit, "decision-jitter", 10*time.Millisecond, "uniform +/- jitter around the decision mean")
	flag.DurationVar(&cfg.holdDeadline, "hold-deadline", 400*time.Millisecond, "transport hold deadline (0 disables)")
	flag.BoolVar(&cfg.failClosed, "fail-closed", false, "resolve expired holds by dropping instead of releasing")
	flag.Int64Var(&cfg.budgetBytes, "budget-bytes", 1<<20, "global hold-memory budget in bytes (0 = unlimited)")
	flag.Float64Var(&cfg.dropFrac, "drop-frac", 0.15, "fraction of sessions with malicious (drop) verdicts")
	flag.Float64Var(&cfg.stallFrac, "stall-frac", 0.25, "fraction of sessions whose decisions wedge")
	flag.DurationVar(&cfg.stallWindow, "stall-window", 1500*time.Millisecond, "stall-flood phase duration (0 skips)")
	flag.StringVar(&cfg.fault, "fault", "none", "fault profile on the decision path: "+faultNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for class assignment, jitter, and fault draws")
	flag.IntVar(&cfg.dialConc, "dial-concurrency", 128, "max in-flight session dials during ramp")
	flag.StringVar(&cfg.jsonOut, "json", "", "write the outcome as JSON to this file")
	flag.Parse()

	if err := validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vgload:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vgload:", err)
		os.Exit(1)
	}
}

func faultNames() string {
	names := "none"
	for _, n := range faults.ProfileNames() {
		if n != "none" {
			names += "|" + n
		}
	}
	return names
}

// validate rejects bad flag combinations before any socket opens.
func validate(cfg config) error {
	if err := cliutil.FirstError(
		cliutil.OneOf("fault", cfg.fault, append([]string{"none"}, faults.ProfileNames()...)...),
		cliutil.Positive("tcp-sessions", cfg.tcpSessions),
		cliutil.Positive("measure-bursts", cfg.bursts),
		cliutil.Positive("dial-concurrency", cfg.dialConc),
	); err != nil {
		return err
	}
	if cfg.dropFrac < 0 || cfg.dropFrac > 1 || cfg.stallFrac < 0 || cfg.stallFrac > 1 ||
		cfg.dropFrac+cfg.stallFrac > 1 {
		return fmt.Errorf("-drop-frac and -stall-frac must be in [0,1] and sum to at most 1")
	}
	if need, limit, ok := fdBudget(cfg); ok && need > limit {
		return fmt.Errorf("-tcp-sessions needs ~%d file descriptors but the soft limit is %d; "+
			"raise it (ulimit -n) or run fewer sessions", need, limit)
	}
	return nil
}

// fdBudget estimates the run's descriptor demand: an Echo session
// costs four (speaker conn, the guard's two sides, the cloud
// emulator's conn), plus slack for listeners, baseline churn, and the
// runtime.
func fdBudget(cfg config) (need, limit uint64, ok bool) {
	limit, ok = fdSoftLimit()
	if !ok {
		return 0, 0, false
	}
	need = 4*uint64(cfg.tcpSessions) + 256
	return need, limit, true
}

func run(cfg config) error {
	out, err := wireload.Run(wireload.Config{
		TCPSessions:     cfg.tcpSessions,
		IdleGap:         cfg.idleGap,
		BurstEvery:      cfg.burstEvery,
		BaselineBursts:  cfg.baseline,
		MeasureBursts:   cfg.bursts,
		DecisionMean:    cfg.decisionMean,
		DecisionJitter:  cfg.decisionJit,
		HoldDeadline:    cfg.holdDeadline,
		FailClosed:      cfg.failClosed,
		BudgetBytes:     cfg.budgetBytes,
		DropFrac:        cfg.dropFrac,
		StallFrac:       cfg.stallFrac,
		StallWindow:     cfg.stallWindow,
		FaultProfile:    cfg.fault,
		Seed:            cfg.seed,
		DialConcurrency: cfg.dialConc,
	})
	if err != nil {
		return err
	}
	fmt.Print(out.Text())
	if cfg.jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := out.Check(); err != nil {
		return fmt.Errorf("check failed: %w", err)
	}
	return nil
}
