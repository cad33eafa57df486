package voiceguard

import (
	"context"
	"testing"
	"time"

	"voiceguard/internal/emul"
)

func TestRunExperimentHouse(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Testbed: TestbedHouse,
		Spot:    "A",
		Speaker: EchoDot,
		Devices: []Device{
			{Name: "pixel5", Model: Pixel5},
			{Name: "pixel4a", Model: Pixel4a},
		},
		Days: 3,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Accuracy < 0.95 {
		t.Fatalf("accuracy %.3f below 0.95", res.Metrics.Accuracy)
	}
	if res.Metrics.Recall < 0.97 {
		t.Fatalf("recall %.3f below 0.97", res.Metrics.Recall)
	}
	if len(res.Thresholds) != 2 {
		t.Fatalf("thresholds = %v", res.Thresholds)
	}
	if res.MeanVerification < 500*time.Millisecond || res.MeanVerification > 4*time.Second {
		t.Fatalf("mean verification %v implausible", res.MeanVerification)
	}
	if len(res.Commands) != 3*22 {
		t.Fatalf("commands = %d, want %d", len(res.Commands), 3*22)
	}
}

func TestRunExperimentValidation(t *testing.T) {
	if _, err := RunExperiment(ExperimentConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := RunExperiment(ExperimentConfig{Testbed: TestbedOffice}); err == nil {
		t.Fatal("missing devices accepted")
	}
	if _, err := RunExperiment(ExperimentConfig{
		Testbed: TestbedOffice,
		Devices: []Device{{Model: GalaxyWatch4}},
	}); err == nil {
		t.Fatal("unnamed device accepted")
	}
}

func TestRunExperimentDefaultSpot(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Testbed: TestbedApartment,
		Speaker: GoogleHomeMini,
		Devices: []Device{{Name: "p5", Model: Pixel5}},
		Days:    1,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TP+res.Metrics.FN == 0 {
		t.Fatal("no attacks were issued")
	}
}

func TestRecognizeTraffic(t *testing.T) {
	res := RecognizeTraffic(134, 3)
	if res.Invocations != 134 {
		t.Fatalf("invocations = %d", res.Invocations)
	}
	if res.PhaseAware.Precision < 1.0 {
		t.Fatalf("phase-aware precision %.3f, want 1.0", res.PhaseAware.Precision)
	}
	if res.Naive.Precision >= res.PhaseAware.Precision {
		t.Fatal("naive should be strictly worse")
	}
}

func TestMeasureRSSIMap(t *testing.T) {
	entries, err := MeasureRSSIMap(TestbedHouse, "A", Pixel5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 78 {
		t.Fatalf("entries = %d, want 78", len(entries))
	}
}

func TestMeasureRSSIMapBadTestbed(t *testing.T) {
	if _, err := MeasureRSSIMap(Testbed(99), "A", Pixel5, 4); err == nil {
		t.Fatal("bad testbed accepted")
	}
}

func TestCalibrateThreshold(t *testing.T) {
	thr, err := CalibrateThreshold(TestbedHouse, "A", Pixel5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if thr > -7 || thr < -11 {
		t.Fatalf("threshold %.2f implausible", thr)
	}
}

func TestMeasureQueryDelay(t *testing.T) {
	res, err := MeasureQueryDelay(EchoDot, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 30 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if res.Mean <= 0 || res.Mean > 3 {
		t.Fatalf("mean %.2f implausible", res.Mean)
	}
	if res.NoDelayCount+res.ResidualCount != 30 {
		t.Fatal("Fig. 6 case split does not cover all samples")
	}
}

func TestStringers(t *testing.T) {
	if TestbedHouse.String() == "" || EchoDot.String() == "" || Pixel5.String() == "" {
		t.Fatal("empty stringer output")
	}
	if Testbed(9).String() == TestbedHouse.String() {
		t.Fatal("unknown testbed collides")
	}
}

func TestLiveProxyReleaseAndDrop(t *testing.T) {
	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	verdicts := make(chan bool, 2)
	lp, err := StartLiveProxy("127.0.0.1:0", cloud.Addr(), func(ctx context.Context) bool {
		select {
		case v := <-verdicts:
			return v
		case <-ctx.Done():
			return false
		}
	}, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	// Legitimate command: verdict true → released, response arrives.
	speaker, err := emul.DialSpeaker(lp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()
	if err := speaker.SendCommand(2, 400); err != nil {
		t.Fatal(err)
	}
	verdicts <- true
	if f, err := speaker.Await(3 * time.Second); err != nil || f.Type != emul.MsgResponse {
		t.Fatalf("legit command: frame %+v err %v", f, err)
	}

	// Malicious command on a fresh session: verdict false → dropped.
	attacker, err := emul.DialSpeaker(lp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	if err := attacker.SendCommand(2, 400); err != nil {
		t.Fatal(err)
	}
	verdicts <- false
	deadline := time.Now().Add(3 * time.Second)
	for lp.Stats().CommandsDropped == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}

	stats := lp.Stats()
	if stats.CommandsHeld < 2 || stats.CommandsReleased != 1 || stats.CommandsDropped < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Give any stray released bytes time to surface, then confirm the
	// attack never reached the cloud.
	time.Sleep(100 * time.Millisecond)
	if cloud.CompletedCommands() != 1 {
		t.Fatalf("cloud completed %d commands, want only the legitimate one", cloud.CompletedCommands())
	}
}

func TestLiveProxyValidation(t *testing.T) {
	if _, err := StartLiveProxy("127.0.0.1:0", "127.0.0.1:1", nil, time.Second); err == nil {
		t.Fatal("nil decision accepted")
	}
}
