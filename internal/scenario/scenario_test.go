package scenario

import (
	"testing"
	"time"

	"voiceguard/internal/corpus"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/radio"
	"voiceguard/internal/trafficgen"
)

func twoPhones() []DeviceSpec {
	return []DeviceSpec{
		{ID: "pixel5", Hardware: radio.Pixel5},
		{ID: "pixel4a", Hardware: radio.Pixel4a},
	}
}

func watch() []DeviceSpec {
	return []DeviceSpec{{ID: "watch4", Hardware: radio.GalaxyWatch4}}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Plan: floorplan.House()}); err == nil {
		t.Fatal("config without devices accepted")
	}
	if _, err := Run(Config{Plan: floorplan.House(), Spot: "Z", Devices: twoPhones()}); err == nil {
		t.Fatal("unknown spot accepted")
	}
}

// The paper's Tables II-IV shape: accuracy above ~96%, recall at (or
// extremely near) 100%.
const (
	minAccuracy  = 0.95
	minRecall    = 0.97
	minPrecision = 0.88
)

// checkOutcome asserts the Tables II-IV shape on one run.
func checkOutcome(t *testing.T, name string, out *Outcome) {
	t.Helper()
	c := out.Confusion
	if c.Total() == 0 {
		t.Fatalf("%s: no commands recorded", name)
	}
	if acc := c.Accuracy(); acc < minAccuracy {
		t.Errorf("%s: accuracy %.4f below %.2f (%v)", name, acc, minAccuracy, c)
	}
	if rec := c.Recall(); rec < minRecall {
		t.Errorf("%s: recall %.4f below %.2f (%v)", name, rec, minRecall, c)
	}
	if prec := c.Precision(); prec < minPrecision {
		t.Errorf("%s: precision %.4f below %.2f (%v)", name, prec, minPrecision, c)
	}
}

// TestTableShapeAcrossSeeds checks the Tables II-IV shape as a
// distribution rather than one draw: for every configuration the
// fixed-seed tests pin, the mean over seeds 1-10 must clear
// checkOutcome's thresholds. Any single seed may fall below them; the
// mean may not, so a re-rolled RNG can move individual runs but not
// the shape.
func TestTableShapeAcrossSeeds(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"house/A/echo", Config{Plan: floorplan.House(), Spot: "A", Speaker: Echo, Devices: twoPhones()}},
		{"house/B/ghm", Config{Plan: floorplan.House(), Spot: "B", Speaker: GHM, Devices: twoPhones()}},
		{"apartment/A", Config{Plan: floorplan.Apartment(), Spot: "A", Speaker: Echo, Devices: twoPhones()}},
		{"apartment/B", Config{Plan: floorplan.Apartment(), Spot: "B", Speaker: Echo, Devices: twoPhones()}},
		{"office/A/ghm-watch", Config{Plan: floorplan.Office(), Spot: "A", Speaker: GHM, Devices: watch()}},
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range configs {
		outs, err := RunSeeds(c.cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		var acc, rec, prec float64
		for _, o := range outs {
			acc += o.Confusion.Accuracy()
			rec += o.Confusion.Recall()
			prec += o.Confusion.Precision()
		}
		n := float64(len(outs))
		acc, rec, prec = acc/n, rec/n, prec/n
		t.Logf("%s: 10-seed mean accuracy %.4f recall %.4f precision %.4f", c.name, acc, rec, prec)
		if acc < minAccuracy {
			t.Errorf("%s: mean accuracy %.4f below %.2f", c.name, acc, minAccuracy)
		}
		if rec < minRecall {
			t.Errorf("%s: mean recall %.4f below %.2f", c.name, rec, minRecall)
		}
		if prec < minPrecision {
			t.Errorf("%s: mean precision %.4f below %.2f", c.name, prec, minPrecision)
		}
	}
}

func TestHouseEchoSpotA(t *testing.T) {
	out, err := Run(Config{Plan: floorplan.House(), Spot: "A", Speaker: Echo, Devices: twoPhones(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "house/A/echo", out)
	if out.TraceEvents == 0 {
		t.Error("house run produced no stairway motion events")
	}
	// The owners issued 7 days × 13 legit + 7 × 9 attacks.
	if got := out.Confusion.Total(); got != 7*(13+9) {
		t.Errorf("total commands = %d, want %d", got, 7*22)
	}
}

func TestHouseGHMSpotB(t *testing.T) {
	out, err := Run(Config{Plan: floorplan.House(), Spot: "B", Speaker: GHM, Devices: twoPhones(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "house/B/ghm", out)
}

func TestApartmentBothSpots(t *testing.T) {
	for _, spot := range []string{"A", "B"} {
		out, err := Run(Config{Plan: floorplan.Apartment(), Spot: spot, Speaker: Echo, Devices: twoPhones(), Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, "apartment/"+spot, out)
		if out.TraceEvents != 0 {
			t.Errorf("single-floor apartment produced %d stair events", out.TraceEvents)
		}
	}
}

func TestOfficeWithWatch(t *testing.T) {
	out, err := Run(Config{Plan: floorplan.Office(), Spot: "A", Speaker: GHM, Devices: watch(), Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "office/A/ghm-watch", out)
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := Config{Plan: floorplan.Apartment(), Spot: "A", Speaker: Echo, Devices: twoPhones(), Days: 2, Seed: 15}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Confusion != b.Confusion {
		t.Fatalf("same seed produced %v and %v", a.Confusion, b.Confusion)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("same seed produced different record counts")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between same-seed runs", i)
		}
	}
}

func TestFloorTrackingAblationHurtsHouse(t *testing.T) {
	base := Config{Plan: floorplan.House(), Spot: "A", Speaker: Echo, Devices: twoPhones(), Seed: 16}
	with, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ablated := base
	ablated.DisableFloorTracking = true
	without, err := Run(ablated)
	if err != nil {
		t.Fatal(err)
	}
	// Without floor tracking, attacks launched while an owner stands
	// in the bleed-through zone above the speaker succeed: recall
	// drops.
	if without.Confusion.Recall() >= with.Confusion.Recall() {
		t.Fatalf("ablation did not hurt recall: with=%v without=%v",
			with.Confusion, without.Confusion)
	}
}

func TestVerificationTimesPlausible(t *testing.T) {
	out, err := Run(Config{Plan: floorplan.House(), Spot: "A", Speaker: Echo, Devices: twoPhones(), Days: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	secs := out.VerificationSeconds()
	if len(secs) == 0 {
		t.Fatal("no verification times")
	}
	for _, s := range secs {
		if s <= 0 || s > 6 {
			t.Fatalf("verification time %.2f s out of range", s)
		}
	}
}

func TestTrafficRecognitionMatchesTable1(t *testing.T) {
	res := TrafficRecognition(134, 21)
	if res.Invocations != 134 {
		t.Fatalf("invocations = %d", res.Invocations)
	}
	c := res.Confusion
	if c.TP+c.FN != 134 {
		t.Fatalf("command spikes = %d, want 134", c.TP+c.FN)
	}
	// Paper: precision 100%, recall 98.51%, accuracy 99.29%.
	if c.Precision() < 1.0 {
		t.Errorf("precision %.4f, want 1.0 (%v)", c.Precision(), c)
	}
	if rec := c.Recall(); rec < 0.95 {
		t.Errorf("recall %.4f, want ~0.985 (%v)", rec, c)
	}
	// The naive detector has perfect recall but poor precision: every
	// response spike is mistaken for a command.
	if res.Naive.Recall() < 1.0 {
		t.Errorf("naive recall %.4f, want 1.0", res.Naive.Recall())
	}
	if res.Naive.Precision() >= c.Precision() {
		t.Errorf("naive precision %.4f not worse than phase-aware %.4f",
			res.Naive.Precision(), c.Precision())
	}
}

func TestRSSIMapCoversAllLocations(t *testing.T) {
	plan := floorplan.House()
	entries, err := RSSIMap(plan, "A", radio.Pixel5, 22)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(plan.Locations) {
		t.Fatalf("entries = %d, want %d", len(entries), len(plan.Locations))
	}
	// Same-room values must clearly exceed distant rooms on average.
	var living, restroom []float64
	for _, e := range entries {
		switch e.Room {
		case "living":
			living = append(living, e.RSSI)
		case "restroom":
			restroom = append(restroom, e.RSSI)
		}
	}
	if mean(living) <= mean(restroom)+4 {
		t.Fatalf("living mean %.2f not well above restroom mean %.2f", mean(living), mean(restroom))
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestRSSIMapUnknownSpot(t *testing.T) {
	if _, err := RSSIMap(floorplan.House(), "Z", radio.Pixel5, 1); err == nil {
		t.Fatal("unknown spot accepted")
	}
}

func TestMapThresholdNearPaperValues(t *testing.T) {
	thr, err := MapThreshold(floorplan.House(), "A", radio.Pixel5, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: living-room threshold -8.
	if thr > -7 || thr < -10.5 {
		t.Fatalf("house/A threshold %.2f, want roughly -8", thr)
	}
}

func TestStairTraceStudy(t *testing.T) {
	study, err := StairTraceStudy(floorplan.House(), "A", "echo@A", radio.Pixel5, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 75 {
		t.Fatalf("training points = %d, want 75", len(study.Points))
	}
	if study.Accuracy < 0.85 {
		t.Fatalf("trace accuracy %.3f below 0.85", study.Accuracy)
	}
	if study.Accuracy < study.SlopeOnlyAccuracy {
		t.Fatalf("intercept feature hurt accuracy: %.3f vs slope-only %.3f",
			study.Accuracy, study.SlopeOnlyAccuracy)
	}
	if study.BandLo >= 0 || study.BandHi <= 0 {
		t.Fatalf("slope band (%v, %v) does not straddle zero", study.BandLo, study.BandHi)
	}
}

func TestStairTraceStudyErrors(t *testing.T) {
	if _, err := StairTraceStudy(floorplan.Apartment(), "A", "x", radio.Pixel5, 1); err == nil {
		t.Fatal("stairless plan accepted")
	}
	if _, err := StairTraceStudy(floorplan.House(), "Z", "x", radio.Pixel5, 1); err == nil {
		t.Fatal("unknown spot accepted")
	}
}

func TestFig10CasesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("four full trace studies")
	}
	studies, err := Fig10Cases(25)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 4 {
		t.Fatalf("cases = %d, want 4", len(studies))
	}
	for _, s := range studies {
		if s.Accuracy < 0.8 {
			t.Errorf("%s: accuracy %.3f", s.Case, s.Accuracy)
		}
	}
}

func TestQueryDelayStudyEcho(t *testing.T) {
	study, err := QueryDelayStudy(Echo, 100, 26)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Verification) != 100 {
		t.Fatalf("verification samples = %d, want 100", len(study.Verification))
	}
	// Paper: Echo average 1.622 s, 78% under 2 s.
	if study.Summary.Mean < 1.0 || study.Summary.Mean > 2.2 {
		t.Fatalf("echo mean verification %.3f s, want ~1.6", study.Summary.Mean)
	}
	if study.Under2s < 0.6 {
		t.Fatalf("fraction under 2 s = %.2f, want most invocations", study.Under2s)
	}
	if study.CaseA+study.CaseB != 100 {
		t.Fatalf("case split %d+%d != 100", study.CaseA, study.CaseB)
	}
	// Paper: ≥80% of queries finish while the user is speaking.
	if frac := float64(study.CaseA) / 100; frac < 0.7 {
		t.Fatalf("case (a) fraction %.2f, want >= 0.7", frac)
	}
}

func TestQueryDelayStudyGHMSlower(t *testing.T) {
	echo, err := QueryDelayStudy(Echo, 60, 27)
	if err != nil {
		t.Fatal(err)
	}
	ghm, err := QueryDelayStudy(GHM, 60, 27)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 7: GHM average (1.892 s) exceeds Echo's (1.622 s).
	if ghm.Summary.Mean <= echo.Summary.Mean {
		t.Fatalf("GHM mean %.3f not above Echo mean %.3f", ghm.Summary.Mean, echo.Summary.Mean)
	}
}

func TestAnalyzeCorpusShape(t *testing.T) {
	a := AnalyzeCorpus(corpus.Alexa(), 1622*time.Millisecond)
	if a.Commands != 320 || a.MeanWords < 5.9 || a.MeanWords > 6.0 {
		t.Fatalf("alexa analysis %+v", a)
	}
	if a.NoDelayAtMean < 0.8 {
		t.Fatalf("alexa no-delay %.2f, want >= 0.8", a.NoDelayAtMean)
	}
}

func TestFig3TraceShape(t *testing.T) {
	spikes := Fig3Trace(28)
	if len(spikes) != 4 {
		t.Fatalf("spikes = %d, want 1 command + 3 responses", len(spikes))
	}
	if spikes[0].Phase != trafficgen.PhaseCommand {
		t.Fatal("first spike is not the command phase")
	}
	prevEnd := spikes[0].EndS
	for _, s := range spikes[1:] {
		if s.Phase != trafficgen.PhaseResponse {
			t.Fatal("later spike is not a response")
		}
		if s.StartS-prevEnd < 1.0 {
			t.Fatalf("spikes not separated by an idle gap: %.2f after %.2f", s.StartS, prevEnd)
		}
		prevEnd = s.EndS
	}
}

func TestHoldReleaseDropCases(t *testing.T) {
	cases, err := HoldReleaseDrop(150 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("cases = %d, want 3", len(cases))
	}
	// Case I: fast response, nothing held.
	if cases[0].ResponseAfter > 500*time.Millisecond || cases[0].HeldBytes != 0 {
		t.Fatalf("case I: %+v", cases[0])
	}
	// Case II: response arrives after the hold, session alive.
	if cases[1].ResponseAfter < 150*time.Millisecond {
		t.Fatalf("case II responded during the hold: %+v", cases[1])
	}
	if cases[1].SessionClosed || cases[1].HeldBytes == 0 {
		t.Fatalf("case II: %+v", cases[1])
	}
	// Case III: session terminated, bytes dropped.
	if !cases[2].SessionClosed || cases[2].DroppedBytes == 0 {
		t.Fatalf("case III: %+v", cases[2])
	}
}
