package scenario

import (
	"bytes"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/guard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/netem"
	"voiceguard/internal/pcap"
	"voiceguard/internal/radio"
	"voiceguard/internal/trafficgen"
)

func TestAttackVectorStudyBlocksAllVectors(t *testing.T) {
	outcomes, err := AttackVectorStudy(18, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(attack.Catalog()) {
		t.Fatalf("outcomes = %d, want %d vectors", len(outcomes), len(attack.Catalog()))
	}
	for _, vo := range outcomes {
		if vo.Attacks == 0 {
			t.Errorf("%s: no attacks issued", vo.Profile.Vector)
			continue
		}
		if rate := vo.BlockRate(); rate < 0.95 {
			t.Errorf("%s: block rate %.2f below 0.95", vo.Profile.Vector, rate)
		}
	}
}

func TestAttackVectorStudyIsAudioAgnostic(t *testing.T) {
	// The defence never inspects audio, so per-vector block rates are
	// identical up to sampling noise.
	outcomes, err := AttackVectorStudy(18, 32)
	if err != nil {
		t.Fatal(err)
	}
	min, max := 1.0, 0.0
	for _, vo := range outcomes {
		r := vo.BlockRate()
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max-min > 0.1 {
		t.Fatalf("block rates spread %.2f..%.2f — should be vector-independent", min, max)
	}
}

func TestVectorOutcomeBlockRateEmpty(t *testing.T) {
	if (VectorOutcome{}).BlockRate() != 0 {
		t.Fatal("empty outcome should report 0")
	}
}

func TestRecognitionUnderImpairmentCleanBaseline(t *testing.T) {
	points := RecognitionUnderImpairment(60, []netem.Config{{}}, 33)
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	if acc := points[0].Confusion.Accuracy(); acc < 0.99 {
		t.Fatalf("clean-capture accuracy %.3f, want ~1.0", acc)
	}
}

func TestRecognitionDegradesWithLoss(t *testing.T) {
	points := RecognitionUnderImpairment(80, []netem.Config{
		{},
		{LossRate: 0.05},
		{LossRate: 0.3},
	}, 34)
	clean := points[0].Confusion.Recall()
	mild := points[1].Confusion.Recall()
	heavy := points[2].Confusion.Recall()
	if clean < mild || mild < heavy {
		t.Fatalf("recall should degrade monotonically-ish: %.3f, %.3f, %.3f", clean, mild, heavy)
	}
	if heavy >= clean {
		t.Fatalf("30%% loss did not hurt recall: clean %.3f vs heavy %.3f", clean, heavy)
	}
}

func TestBackgroundTrafficDoesNotChangeVerdicts(t *testing.T) {
	base := Config{
		Plan:    floorplan.House(),
		Spot:    "A",
		Speaker: Echo,
		Devices: []DeviceSpec{
			{ID: "pixel5", Hardware: radio.Pixel5},
			{ID: "pixel4a", Hardware: radio.Pixel4a},
		},
		Days: 3,
		Seed: 91,
	}
	quiet, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	noisy := base
	noisy.BackgroundTraffic = true
	busy, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	// The recognizer filters by speaker IP and tracked flow, so a
	// chattering home network must not change a single verdict.
	if quiet.Confusion != busy.Confusion {
		t.Fatalf("background traffic changed outcomes: %v vs %v", quiet.Confusion, busy.Confusion)
	}
	if len(quiet.Records) != len(busy.Records) {
		t.Fatal("record counts diverged")
	}
	for i := range quiet.Records {
		if quiet.Records[i].Blocked != busy.Records[i].Blocked {
			t.Fatalf("record %d verdict changed under background traffic", i)
		}
	}
}

func TestBackgroundTrafficAppearsInCapture(t *testing.T) {
	out, err := Run(Config{
		Plan:              floorplan.House(),
		Spot:              "A",
		Speaker:           Echo,
		Devices:           []DeviceSpec{{ID: "p5", Hardware: radio.Pixel5}},
		Days:              1,
		Seed:              92,
		BackgroundTraffic: true,
		RecordCapture:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	foreign := 0
	for _, p := range out.Capture {
		if p.SrcIP != (pcap.IPv4{}) && p.SrcIP != trafficgen.EchoAddr && p.SrcIP != trafficgen.RouterAddr {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("no background packets reached the guard's capture")
	}
}

func TestRunMultiProtectsBothSpeakers(t *testing.T) {
	out, err := RunMulti(Config{
		Plan: floorplan.House(),
		Devices: []DeviceSpec{
			{ID: "pixel5", Hardware: radio.Pixel5},
			{ID: "pixel4a", Hardware: radio.Pixel4a},
		},
		Days: 4,
		Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerSpeaker) != 2 {
		t.Fatalf("speakers = %d, want 2", len(out.PerSpeaker))
	}
	// Per-speaker samples are small (a few dozen commands each); the
	// property under test is the routing — each speaker's verdicts
	// land in its own matrix with sane quality.
	for spot, c := range out.PerSpeaker {
		if c.Total() == 0 {
			t.Fatalf("speaker %s saw no commands", spot)
		}
		if acc := c.Accuracy(); acc < 0.9 {
			t.Errorf("speaker %s accuracy %.3f below 0.9 (%v)", spot, acc, c)
		}
	}
	overall := out.Overall()
	if overall.Total() != out.Commands {
		t.Fatalf("overall total %d != commands %d", overall.Total(), out.Commands)
	}
	if rec := overall.Recall(); rec < 0.9 {
		t.Errorf("overall recall %.3f below 0.9", rec)
	}
}

// TestRunMultiFeedsThroughRouter leaves the Echo out of the router:
// its packets must then reach no guard, so its commands go unguarded
// (none recognized, none blocked) and the router counts the unknown
// speaker, while the registered GHM stays guarded.
func TestRunMultiFeedsThroughRouter(t *testing.T) {
	cfg := Config{
		Plan:    floorplan.House(),
		Devices: []DeviceSpec{{ID: "pixel5", Hardware: radio.Pixel5}},
		Days:    2,
		Seed:    81,
	}.withDefaults()
	echoRun, ghmRun, err := newMultiRuns(cfg)
	if err != nil {
		t.Fatal(err)
	}
	router := guard.NewRouter()
	if err := router.Add(trafficgen.GHMIP, ghmRun.guard); err != nil {
		t.Fatal(err)
	}
	unknown := metrics.Default.Counter("guard_router_unknown_speaker_total")
	before := unknown.Value()
	out := runMulti(cfg, router, echoRun, ghmRun)
	if out.PerSpeaker["A"].Total() == 0 {
		t.Fatal("the Echo issued no commands")
	}
	for _, rec := range echoRun.outcome.Records {
		if rec.Recognized || rec.Blocked {
			t.Fatalf("unrouted Echo command was guarded: %+v", rec)
		}
	}
	recognized := 0
	for _, rec := range ghmRun.outcome.Records {
		if rec.Recognized {
			recognized++
		}
	}
	if recognized == 0 {
		t.Fatal("the routed GHM recognized no command")
	}
	if unknown.Value() == before {
		t.Fatal("guard_router_unknown_speaker_total did not move")
	}
}

func TestRunMultiValidates(t *testing.T) {
	if _, err := RunMulti(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunMulti(Config{Plan: floorplan.House()}); err == nil {
		t.Fatal("missing devices accepted")
	}
}

func TestNoiseSensitivityCurve(t *testing.T) {
	points, err := NoiseSensitivity([]float64{1, 8}, 7, 71)
	if err != nil {
		t.Fatal(err)
	}
	baseline, noisy := points[0].Confusion, points[1].Confusion
	if baseline.Accuracy() < 0.93 {
		t.Fatalf("baseline accuracy %.3f too low", baseline.Accuracy())
	}
	// At 8x the calibrated noise the in-room/away separation drowns:
	// both recall and accuracy must visibly collapse.
	if noisy.Recall() >= baseline.Recall() {
		t.Fatalf("8x noise did not hurt recall: %.3f vs %.3f", noisy.Recall(), baseline.Recall())
	}
	if noisy.Accuracy() >= baseline.Accuracy()-0.05 {
		t.Fatalf("8x noise did not hurt accuracy: %.3f vs %.3f", noisy.Accuracy(), baseline.Accuracy())
	}
}

func TestNoiseSensitivityValidatesThroughRun(t *testing.T) {
	// The sweep must thread RadioParams through Run: a zero-noise run
	// has deterministic measurements, so the only residual errors are
	// structural.
	points, err := NoiseSensitivity([]float64{0}, 2, 72)
	if err != nil {
		t.Fatal(err)
	}
	if acc := points[0].Confusion.Accuracy(); acc < 0.97 {
		t.Fatalf("zero-noise accuracy %.3f, want near-perfect", acc)
	}
}

func TestRecordCaptureRoundTrips(t *testing.T) {
	out, err := Run(Config{
		Plan:          floorplan.House(),
		Spot:          "A",
		Speaker:       Echo,
		Devices:       []DeviceSpec{{ID: "p5", Hardware: radio.Pixel5}},
		Days:          1,
		RecordCapture: true,
		Seed:          36,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Capture) == 0 {
		t.Fatal("RecordCapture retained nothing")
	}
	var buf bytes.Buffer
	if err := pcap.WriteCapture(&buf, out.Capture); err != nil {
		t.Fatal(err)
	}
	replay, err := pcap.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(out.Capture) {
		t.Fatalf("replayed %d of %d packets", len(replay), len(out.Capture))
	}
	// Capture must be time-ordered so it can be replayed through a
	// recognizer directly.
	for i := 1; i < len(replay); i++ {
		if replay[i].Time.Before(replay[i-1].Time) {
			t.Fatal("capture not time-ordered")
		}
	}
}

// The generators reuse their DNS payload buffers (the chatter stream's
// per burst, the GHM's per command), so the capture must keep copies:
// every captured DNS answer must still name the address its client
// connects to next, and the capture must round-trip byte for byte.
func TestCaptureKeepsReusedDNSPayloads(t *testing.T) {
	out, err := Run(Config{
		Plan:              floorplan.House(),
		Spot:              "A",
		Speaker:           GHM,
		Devices:           []DeviceSpec{{ID: "p5", Hardware: radio.Pixel5}},
		Days:              1,
		BackgroundTraffic: true,
		RecordCapture:     true,
		Seed:              37,
	})
	if err != nil {
		t.Fatal(err)
	}
	capture := out.Capture
	answers := 0
	speakerAnswers := 0
	for i, p := range capture {
		msg, ok := pcap.IsDNSResponse(&p)
		if !ok {
			continue
		}
		answers++
		if p.DstIP == trafficgen.GHMAddr {
			speakerAnswers++
		}
		want := msg.Addr.As4()
		for _, next := range capture[i+1:] {
			if next.SrcIP != p.DstIP || next.DstPort == pcap.DNSPort {
				continue
			}
			if next.DstIP != want {
				t.Fatalf("DNS answer %d for %s says %v, but its client next connects to %v",
					i, msg.Name, pcap.IPv4(want), next.DstIP)
			}
			break
		}
	}
	if answers < 10 || speakerAnswers == 0 {
		t.Fatalf("capture holds %d DNS answers, %d of them the speaker's; want both kinds", answers, speakerAnswers)
	}

	var buf bytes.Buffer
	if err := pcap.WriteCapture(&buf, capture); err != nil {
		t.Fatal(err)
	}
	replay, err := pcap.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(capture) {
		t.Fatalf("replayed %d of %d packets", len(replay), len(capture))
	}
	for i := range capture {
		a, b := capture[i], replay[i]
		if !a.Time.Equal(b.Time) || a.SrcIP != b.SrcIP || a.DstIP != b.DstIP || a.SrcPort != b.SrcPort ||
			a.DstPort != b.DstPort || a.Proto != b.Proto || a.Len != b.Len || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("packet %d did not round-trip: %+v -> %+v", i, a, b)
		}
	}
}

func TestCaptureOffByDefault(t *testing.T) {
	out, err := Run(Config{
		Plan:    floorplan.House(),
		Spot:    "A",
		Speaker: Echo,
		Devices: []DeviceSpec{{ID: "p5", Hardware: radio.Pixel5}},
		Days:    1,
		Seed:    36,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Capture) != 0 {
		t.Fatal("capture recorded without RecordCapture")
	}
}

func TestRecognitionToleratesJitterAndDuplicates(t *testing.T) {
	// Duplication and mild jitter shuffle timing but keep the marker
	// packets present; the classifier should stay near-perfect.
	points := RecognitionUnderImpairment(60, []netem.Config{
		{DuplicateRate: 0.1, JitterMax: 20 * time.Millisecond},
	}, 35)
	if acc := points[0].Confusion.Accuracy(); acc < 0.9 {
		t.Fatalf("accuracy %.3f under mild jitter/duplication", acc)
	}
}
