package scenario

import (
	"fmt"
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/faults"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/obs"
	"voiceguard/internal/parallel"
	"voiceguard/internal/radio"
	"voiceguard/internal/stats"
)

// FaultPoint is the protection performance of one multi-day run under
// one push-channel fault profile.
type FaultPoint struct {
	Profile   faults.Profile
	Policy    guard.DegradedPolicy
	Confusion stats.Confusion
	Latency   stats.Summary // verification seconds over recognized commands
	Commands  int           // recognized commands
	Degraded  int           // verdicts decided by the degraded policy

	// LatencyP99 is the p99 decision round-trip latency read back from
	// the labeled metrics plane for exactly this run's (home, profile)
	// series — the dimensional cross-check of Latency.P99, which is
	// computed from the run's own records.
	LatencyP99 time.Duration

	// SLO evaluates the study's objectives (decision latency, guard
	// hold) against the same (home, profile) slice of the registry.
	SLO []obs.SLOResult
}

// FaultStudyConfig parameterises a fault study. The zero value (after
// defaults) is the standard study: the two-floor house testbed, the
// Echo speaker, the standard profile set, and the fail-closed policy.
type FaultStudyConfig struct {
	Profiles []faults.Profile // defaults to faults.Profiles()
	Policy   guard.DegradedPolicy
	Days     int // defaults to 7

	// Home labels the study's runs in the metrics plane; it defaults
	// to "faults-<seed>" so concurrent or repeated studies with
	// different seeds keep their series apart.
	Home string

	Seed int64
}

// faultObjectives is the per-profile SLO set a fault study evaluates,
// scoped to the study's (home, profile) label slice.
func faultObjectives(home, profile string) []obs.Objective {
	labels := metrics.Labels{Home: home, Profile: profile}
	return []obs.Objective{
		{
			Name:     "decision-latency-p99",
			Kind:     obs.SLOLatency,
			Metric:   decision.MetricLatency,
			Labels:   labels,
			Quantile: 0.99,
			Max:      obs.DefaultDecisionP99Max,
		},
		{
			Name:     "guard-hold-p99",
			Kind:     obs.SLOLatency,
			Metric:   guard.MetricHoldLatency,
			Labels:   labels,
			Quantile: 0.99,
			Max:      obs.DefaultHoldP99Max,
		},
	}
}

// FaultStudy re-runs the 7-day protection protocol once per fault
// profile. Every run uses the same seed, so the command schedule and
// owner movements are identical across profiles and any accuracy or
// latency drift is attributable to the injected faults alone. Runs
// fan out across the parallel worker pool; the returned points are in
// profile order and bit-identical for a fixed seed.
//
// Each profile run is labeled (home, profile) in the metrics plane;
// the returned points carry the per-label p99 decision latency and
// SLO evaluation read back from that slice of the registry.
func FaultStudy(cfg FaultStudyConfig) ([]FaultPoint, error) {
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = faults.Profiles()
	}
	days := cfg.Days
	if days == 0 {
		days = 7
	}
	home := cfg.Home
	if home == "" {
		home = fmt.Sprintf("faults-%d", cfg.Seed)
	}
	// The registry is process-wide and cumulative; the baseline
	// snapshot scopes each point's SLO evaluation to this study's own
	// contribution, so repeated studies stay bit-identical.
	base := metrics.Default.Snapshot()
	return parallel.MapErr(len(profiles), func(i int) (FaultPoint, error) {
		p := profiles[i]
		c := Config{
			Plan:    floorplan.House(),
			Spot:    "A",
			Speaker: Echo,
			Devices: []DeviceSpec{
				{ID: "pixel5", Hardware: radio.Pixel5},
				{ID: "pixel4a", Hardware: radio.Pixel4a},
			},
			Days:     days,
			Degraded: cfg.Policy,
			Home:     home,
			Seed:     cfg.Seed,
		}
		if p.Name != "none" {
			c.Faults = &p
		}
		out, err := Run(c)
		if err != nil {
			return FaultPoint{}, err
		}
		pt := FaultPoint{
			Profile:   p,
			Policy:    cfg.Policy,
			Confusion: out.Confusion,
			Latency:   stats.Summarize(out.VerificationSeconds()),
		}
		for _, rec := range out.Records {
			if rec.Recognized {
				pt.Commands++
			}
			if rec.Degraded {
				pt.Degraded++
			}
		}
		pt.SLO = obs.Evaluate(metrics.Delta(base, metrics.Default.Snapshot()), faultObjectives(home, p.Name))
		for _, r := range pt.SLO {
			if r.Objective.Metric == decision.MetricLatency {
				pt.LatencyP99 = r.Quantile
			}
		}
		return pt, nil
	})
}
