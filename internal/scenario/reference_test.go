package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"voiceguard/internal/faults"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/guard"
	"voiceguard/internal/parallel"
	"voiceguard/internal/radio"
	"voiceguard/internal/stats"
)

// faultProfile returns the named standard fault profile.
func faultProfile(t *testing.T, name string) *faults.Profile {
	t.Helper()
	for _, p := range faults.Profiles() {
		if p.Name == name {
			return &p
		}
	}
	t.Fatalf("no fault profile %q", name)
	return nil
}

// referenceConfigs covers the simulator surface the event loop
// replaced: both speakers, both testbeds' device mixes, background
// traffic, and an injected push-channel fault profile.
func referenceConfigs(t *testing.T) map[string]Config {
	drop20 := faultProfile(t, "drop20")
	return map[string]Config{
		"house-echo": {
			Plan: floorplan.House(), Spot: "A", Speaker: Echo,
			Devices: []DeviceSpec{
				{ID: "pixel5", Hardware: radio.Pixel5},
				{ID: "pixel4a", Hardware: radio.Pixel4a},
			},
			Days: 2, Seed: 11,
		},
		"house-ghm-background": {
			Plan: floorplan.House(), Spot: "B", Speaker: GHM,
			Devices: []DeviceSpec{
				{ID: "pixel5", Hardware: radio.Pixel5},
			},
			Days: 2, Seed: 12, BackgroundTraffic: true,
		},
		"apartment-watch": {
			Plan: floorplan.Apartment(), Spot: "A", Speaker: Echo,
			Devices: []DeviceSpec{
				{ID: "watch4", Hardware: radio.GalaxyWatch4},
			},
			Days: 2, Seed: 13,
		},
		"house-echo-drop20": {
			Plan: floorplan.House(), Spot: "A", Speaker: Echo,
			Devices: []DeviceSpec{
				{ID: "pixel5", Hardware: radio.Pixel5},
				{ID: "pixel4a", Hardware: radio.Pixel4a},
			},
			Days: 2, Seed: 14,
			Faults:   drop20,
			Degraded: guard.DegradedFailClosed,
		},
		"house-echo-background": {
			Plan: floorplan.House(), Spot: "A", Speaker: Echo,
			Devices: []DeviceSpec{
				{ID: "pixel5", Hardware: radio.Pixel5},
			},
			Days: 2, Seed: 15, BackgroundTraffic: true,
		},
	}
}

// outcomeDigest hashes everything a run produced: thresholds,
// confusion, every command record and the trace counters. The config
// is the input, not the output, and is left out.
func outcomeDigest(t *testing.T, o *Outcome) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Thresholds         map[string]float64
		Confusion          stats.Confusion
		Records            []CommandRecord
		TraceEvents        int
		TraceMisclassified int
	}{o.Thresholds, o.Confusion, o.Records, o.TraceEvents, o.TraceMisclassified})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenOutcomes are the outcome digests of the referenceConfigs,
// recorded while the retired pre-scheduler day loop (a sorted slot
// slice walked point by point) still produced bit-identical outcomes
// to the event-driven one. A mismatch means a change moved an RNG
// draw, a packet, a verdict or a timestamp somewhere in the run.
var goldenOutcomes = map[string]string{
	"house-echo":            "12c9068a7c362523afc1f856d678a6f27ec6318979d32bcaee4228af837dcfcf",
	"house-ghm-background":  "5a92c7d17e72ab0dafeeae560277529fbd9136ab18630ab09a0a1be75469cfd0",
	"apartment-watch":       "cf9d66b027b79e5f0e7c954a5ef508ae43f63efcc2cfcf4938a048a0d9d8477c",
	"house-echo-drop20":     "25233819da5553c57c7ec879164d29a060486e3f085d90b73186767d6a7f3721",
	"house-echo-background": "4fe42f22a5ace0cf8449b75361b1465b0281a6144939731019b618f01b6551b0",
}

// TestEventLoopMatchesReference pins the discrete-event day loop to
// the reference loop's recorded outcomes: for a fixed seed every
// command record, threshold, confusion cell and trace counter must
// hash to the golden digest, across speakers, testbeds, background
// traffic and injected faults.
func TestEventLoopMatchesReference(t *testing.T) {
	for name, cfg := range referenceConfigs(t) {
		t.Run(name, func(t *testing.T) {
			out, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(out.Records) == 0 {
				t.Fatal("run produced no command records")
			}
			if got, want := outcomeDigest(t, out), goldenOutcomes[name]; got != want {
				t.Errorf("outcome digest = %s, want %s (confusion %+v, %d records)",
					got, want, out.Confusion, len(out.Records))
			}
		})
	}
}

// TestRunWorkerCountInvariant pins the event-driven runner's outcome
// against the size of the shared worker pool: a multi-day run must be
// bit-identical whether the process parallelises across 1 or 8
// workers (the memo layers underneath — shadow field, paths, trace
// means — are shared mutable state exercised concurrently).
func TestRunWorkerCountInvariant(t *testing.T) {
	cfg := referenceConfigs(t)["house-echo"]
	var serial, parallelRun *Outcome
	withWorkers(t, 1, func() {
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run (1 worker): %v", err)
		}
		serial = out
	})
	withWorkers(t, 8, func() {
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run (8 workers): %v", err)
		}
		parallelRun = out
	})
	if !reflect.DeepEqual(serial, parallelRun) {
		t.Errorf("outcome depends on worker count: 1-worker confusion %+v, 8-worker %+v",
			serial.Confusion, parallelRun.Confusion)
	}
}

// TestFaultStudyWorkerCountInvariant runs the drop20 fault study —
// which fans its per-profile runs across the worker pool — under two
// pool sizes and requires bit-identical points.
func TestFaultStudyWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-profile fault study")
	}
	study := FaultStudyConfig{
		Profiles: []faults.Profile{faults.None(), *faultProfile(t, "drop20")},
		Days:     2,
		Seed:     7,
	}
	var one, eight []FaultPoint
	withWorkers(t, 1, func() {
		pts, err := FaultStudy(study)
		if err != nil {
			t.Fatalf("FaultStudy (1 worker): %v", err)
		}
		one = pts
	})
	withWorkers(t, 8, func() {
		pts, err := FaultStudy(study)
		if err != nil {
			t.Fatalf("FaultStudy (8 workers): %v", err)
		}
		eight = pts
	})
	if !reflect.DeepEqual(one, eight) {
		t.Errorf("fault study depends on worker count:\n1 worker: %+v\n8 workers: %+v", one, eight)
	}
}

var _ = parallel.SetWorkers // withWorkers helper lives in parallel_test.go
