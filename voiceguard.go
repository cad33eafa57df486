// Package voiceguard is a reproduction of "VoiceGuard: An Effective
// and Practical Approach for Detecting and Blocking Unauthorized
// Voice Commands to Smart Speakers" (DSN 2023).
//
// VoiceGuard protects commercial smart speakers without modifying
// them: a guard device on the home network recognizes voice-command
// traffic by packet-level signatures, holds it in a transparent proxy,
// and releases or drops it depending on whether the owner's
// phone/watch measures the speaker's Bluetooth RSSI above a calibrated
// threshold.
//
// The package exposes two layers:
//
//   - a simulation layer reproducing the paper's evaluation — the
//     three testbeds, both speakers, the 7-day protection protocol,
//     the traffic-recognition study, RSSI maps, stair-trace
//     classification, and the delay analyses;
//   - a live layer (StartLiveGuard, StartLiveProxy) running the same
//     guard core on real TCP sockets, holding, releasing, and dropping
//     the speaker's traffic.
package voiceguard

import (
	"fmt"
	"io"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/pcap"
	"voiceguard/internal/radio"
	"voiceguard/internal/scenario"
	"voiceguard/internal/stats"
)

// Testbed selects one of the paper's three evaluation environments.
type Testbed int

// The paper's testbeds (§V-B).
const (
	TestbedHouse     Testbed = iota + 1 // two-floor house, 78 locations
	TestbedApartment                    // two-bedroom apartment, 54 locations
	TestbedOffice                       // large office, 70 locations
)

// String names the testbed.
func (t Testbed) String() string {
	switch t {
	case TestbedHouse:
		return "two-floor house"
	case TestbedApartment:
		return "two-bedroom apartment"
	case TestbedOffice:
		return "office"
	default:
		return fmt.Sprintf("Testbed(%d)", int(t))
	}
}

// plan returns the floor plan behind the testbed.
func (t Testbed) plan() (*floorplan.Plan, error) {
	switch t {
	case TestbedHouse:
		return floorplan.House(), nil
	case TestbedApartment:
		return floorplan.Apartment(), nil
	case TestbedOffice:
		return floorplan.Office(), nil
	default:
		return nil, fmt.Errorf("voiceguard: unknown testbed %d", int(t))
	}
}

// Speaker selects the emulated smart speaker.
type Speaker int

// The evaluated speakers.
const (
	EchoDot        Speaker = iota + 1 // Amazon Echo Dot
	GoogleHomeMini                    // Google Home Mini
)

// String names the speaker.
func (s Speaker) String() string {
	switch s {
	case EchoDot:
		return "Amazon Echo Dot"
	case GoogleHomeMini:
		return "Google Home Mini"
	default:
		return fmt.Sprintf("Speaker(%d)", int(s))
	}
}

func (s Speaker) kind() scenario.SpeakerKind {
	if s == GoogleHomeMini {
		return scenario.GHM
	}
	return scenario.Echo
}

// DeviceModel selects the owner-device hardware profile.
type DeviceModel int

// The paper's owner devices.
const (
	Pixel5 DeviceModel = iota + 1
	Pixel4a
	GalaxyWatch4
)

// String names the device model.
func (d DeviceModel) String() string { return d.hardware().Name }

func (d DeviceModel) hardware() radio.Device {
	switch d {
	case Pixel4a:
		return radio.Pixel4a
	case GalaxyWatch4:
		return radio.GalaxyWatch4
	default:
		return radio.Pixel5
	}
}

// Device registers one legitimate user's phone or watch.
type Device struct {
	Name  string
	Model DeviceModel
}

// ExperimentConfig parameterises a protection experiment (the 7-day
// protocol behind Tables II-IV).
type ExperimentConfig struct {
	Testbed Testbed
	Spot    string // deployment location: "A" or "B"
	Speaker Speaker
	Devices []Device

	Days int   // default 7
	Seed int64 // reproducibility seed

	// DisableFloorTracking turns off the floor-level mechanism
	// (multi-floor testbeds only) — the paper's §V-B2 ablation.
	DisableFloorTracking bool

	// RecordCapture retains the guard's packet capture;
	// ExperimentResult.WriteCapture persists it for offline analysis.
	RecordCapture bool
}

// Metrics summarises a binary classification where the positive class
// is a malicious command.
type Metrics struct {
	TP, FP, TN, FN int

	Accuracy  float64
	Precision float64
	Recall    float64
}

// metricsOf converts a confusion matrix.
func metricsOf(c stats.Confusion) Metrics {
	return Metrics{
		TP: c.TP, FP: c.FP, TN: c.TN, FN: c.FN,
		Accuracy:  c.Accuracy(),
		Precision: c.Precision(),
		Recall:    c.Recall(),
	}
}

// Command records one issued voice command.
type Command struct {
	Day          int
	Malicious    bool
	Blocked      bool
	Verification time.Duration
	Perceived    time.Duration
}

// ExperimentResult is the outcome of RunExperiment.
type ExperimentResult struct {
	Metrics    Metrics
	Thresholds map[string]float64 // calibrated per device
	Commands   []Command

	MeanVerification time.Duration

	capture []pcap.Packet
}

// WriteCapture persists the guard's packet capture (requires
// ExperimentConfig.RecordCapture) in the pcap package's capture
// format.
func (r *ExperimentResult) WriteCapture(w io.Writer) error {
	if len(r.capture) == 0 {
		return fmt.Errorf("voiceguard: no capture recorded (set RecordCapture)")
	}
	return pcap.WriteCapture(w, r.capture)
}

// RunExperiment executes the protection protocol: owners issue
// legitimate commands near the speaker, an attacker plays malicious
// commands while every owner is away, and VoiceGuard decides each one
// by Bluetooth RSSI (plus floor tracking in the house).
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	plan, err := cfg.Testbed.plan()
	if err != nil {
		return nil, err
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("voiceguard: at least one owner device is required")
	}
	devices := make([]scenario.DeviceSpec, 0, len(cfg.Devices))
	for _, d := range cfg.Devices {
		if d.Name == "" {
			return nil, fmt.Errorf("voiceguard: device needs a name")
		}
		devices = append(devices, scenario.DeviceSpec{ID: d.Name, Hardware: d.Model.hardware()})
	}
	spot := cfg.Spot
	if spot == "" {
		spot = "A"
	}

	out, err := scenario.Run(scenario.Config{
		Plan:                 plan,
		Spot:                 spot,
		Speaker:              cfg.Speaker.kind(),
		Devices:              devices,
		Days:                 cfg.Days,
		Seed:                 cfg.Seed,
		DisableFloorTracking: cfg.DisableFloorTracking,
		RecordCapture:        cfg.RecordCapture,
	})
	if err != nil {
		return nil, err
	}

	res := &ExperimentResult{
		Metrics:    metricsOf(out.Confusion),
		Thresholds: out.Thresholds,
		capture:    out.Capture,
	}
	var totalVerification time.Duration
	verified := 0
	for _, r := range out.Records {
		res.Commands = append(res.Commands, Command{
			Day:          r.Day,
			Malicious:    r.Malicious,
			Blocked:      r.Blocked,
			Verification: r.Verification,
			Perceived:    r.Perceived,
		})
		if r.Recognized {
			totalVerification += r.Verification
			verified++
		}
	}
	if verified > 0 {
		res.MeanVerification = totalVerification / time.Duration(verified)
	}
	return res, nil
}

// RecognitionResult reports the traffic-recognition study (Table I).
type RecognitionResult struct {
	Invocations int
	Spikes      int
	PhaseAware  Metrics // the paper's recognizer
	Naive       Metrics // any-spike-after-idle baseline
}

// RecognizeTraffic runs the Table I experiment: classify every spike
// of the given number of Echo Dot invocations.
func RecognizeTraffic(invocations int, seed int64) RecognitionResult {
	res := scenario.TrafficRecognition(invocations, seed)
	return RecognitionResult{
		Invocations: res.Invocations,
		Spikes:      res.Spikes,
		PhaseAware:  metricsOf(res.Confusion),
		Naive:       metricsOf(res.Naive),
	}
}

// LocationRSSI is one entry of an RSSI map (Figures 8/9).
type LocationRSSI struct {
	ID    int
	Room  string
	Floor int
	RSSI  float64
}

// MeasureRSSIMap measures the speaker's Bluetooth RSSI at every
// numbered location of a testbed (16 measurements averaged per
// location, as in the paper).
func MeasureRSSIMap(tb Testbed, spot string, dev DeviceModel, seed int64) ([]LocationRSSI, error) {
	plan, err := tb.plan()
	if err != nil {
		return nil, err
	}
	entries, err := scenario.RSSIMap(plan, spot, dev.hardware(), seed)
	if err != nil {
		return nil, err
	}
	out := make([]LocationRSSI, len(entries))
	for i, e := range entries {
		out[i] = LocationRSSI{ID: e.ID, Room: e.Room, Floor: e.Floor, RSSI: e.RSSI}
	}
	return out, nil
}

// CalibrateThreshold runs the walk-the-room threshold app on a
// testbed spot and returns the learned RSSI threshold.
func CalibrateThreshold(tb Testbed, spot string, dev DeviceModel, seed int64) (float64, error) {
	plan, err := tb.plan()
	if err != nil {
		return 0, err
	}
	return scenario.MapThreshold(plan, spot, dev.hardware(), seed)
}

// DelayResult reports the RSSI-query delay study (Figures 6/7).
type DelayResult struct {
	Samples []float64 // seconds

	Mean            float64
	P90             float64
	Max             float64
	Under2sFraction float64

	// NoDelayCount / ResidualCount are the Fig. 6 case (a)/(b)
	// splits: queries finishing while the user is still speaking vs
	// leaving a perceptible delay.
	NoDelayCount  int
	ResidualCount int
}

// MeasureQueryDelay runs n legitimate invocations against the given
// speaker and reports the verification-time distribution.
func MeasureQueryDelay(speaker Speaker, n int, seed int64) (*DelayResult, error) {
	study, err := scenario.QueryDelayStudy(speaker.kind(), n, seed)
	if err != nil {
		return nil, err
	}
	return &DelayResult{
		Samples:         study.Verification,
		Mean:            study.Summary.Mean,
		P90:             study.Summary.P90,
		Max:             study.Summary.Max,
		Under2sFraction: study.Under2s,
		NoDelayCount:    study.CaseA,
		ResidualCount:   study.CaseB,
	}, nil
}
