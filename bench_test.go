// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact), the ablation studies
// called out in DESIGN.md, and micro-benchmarks of the hot paths.
// Quality metrics are attached to the benchmark output via
// ReportMetric (pct_* units), so `go test -bench` doubles as the
// reproduction harness.
package voiceguard

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/corpus"
	"voiceguard/internal/decision"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/mobility"
	"voiceguard/internal/netem"
	"voiceguard/internal/pcap"
	"voiceguard/internal/proxy"
	"voiceguard/internal/radio"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/scenario"
	"voiceguard/internal/stats"
	"voiceguard/internal/trafficgen"
)

func twoPhoneSpecs() []scenario.DeviceSpec {
	return []scenario.DeviceSpec{
		{ID: "pixel5", Hardware: radio.Pixel5},
		{ID: "pixel4a", Hardware: radio.Pixel4a},
	}
}

// --- Table I ---------------------------------------------------------

func BenchmarkTable1Recognition(b *testing.B) {
	var last scenario.RecognitionResult
	for i := 0; i < b.N; i++ {
		last = scenario.TrafficRecognition(134, int64(i+1))
	}
	b.ReportMetric(100*last.Confusion.Accuracy(), "pct_accuracy")
	b.ReportMetric(100*last.Confusion.Precision(), "pct_precision")
	b.ReportMetric(100*last.Confusion.Recall(), "pct_recall")
}

// --- Tables II-IV ----------------------------------------------------

func benchProtection(b *testing.B, plan *floorplan.Plan, spot string, speaker scenario.SpeakerKind, devices []scenario.DeviceSpec) {
	b.Helper()
	var last *scenario.Outcome
	for i := 0; i < b.N; i++ {
		out, err := scenario.Run(scenario.Config{
			Plan:    plan,
			Spot:    spot,
			Speaker: speaker,
			Devices: devices,
			Seed:    int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	b.ReportMetric(100*last.Confusion.Accuracy(), "pct_accuracy")
	b.ReportMetric(100*last.Confusion.Precision(), "pct_precision")
	b.ReportMetric(100*last.Confusion.Recall(), "pct_recall")
}

func BenchmarkTable2House(b *testing.B) {
	benchProtection(b, floorplan.House(), "A", scenario.Echo, twoPhoneSpecs())
}

func BenchmarkTable2HouseSecondLocation(b *testing.B) {
	benchProtection(b, floorplan.House(), "B", scenario.Echo, twoPhoneSpecs())
}

func BenchmarkTable3Apartment(b *testing.B) {
	benchProtection(b, floorplan.Apartment(), "A", scenario.Echo, twoPhoneSpecs())
}

func BenchmarkTable4Office(b *testing.B) {
	benchProtection(b, floorplan.Office(), "A", scenario.GHM,
		[]scenario.DeviceSpec{{ID: "watch4", Hardware: radio.GalaxyWatch4}})
}

// --- Simulator throughput --------------------------------------------

// BenchmarkHomeDay measures simulator throughput end to end: each
// iteration is one 7-day protection run of the two-floor house
// testbed on a fixed seed — the discrete-event loop's steady-state
// regime, with the deterministic memo layers (shadow field, mobility
// paths, trace means) warm across iterations. The home_days_per_sec
// metric is the headline throughput number the CI bench gate tracks.
func BenchmarkHomeDay(b *testing.B) {
	plan := floorplan.House()
	const days = 7
	var last *scenario.Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := scenario.Run(scenario.Config{
			Plan:    plan,
			Spot:    "A",
			Speaker: scenario.Echo,
			Devices: twoPhoneSpecs(),
			Days:    days,
			Seed:    1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(days)*float64(b.N)/secs, "home_days_per_sec")
	}
	b.ReportMetric(100*last.Confusion.Accuracy(), "pct_accuracy")
}

// BenchmarkBackgroundDay measures the LAN-chatter generator that
// every background-traffic home runs once per simulated day: one
// 16-hour day (~30,000 packets) streamed burst by burst into a no-op
// sink. Only the current burst is ever held, so allocations per day
// stay at the per-burst address string and DNS messages.
func BenchmarkBackgroundDay(b *testing.B) {
	start := scenario.DefaultStart.Add(6 * time.Hour)
	packets := 0
	sink := func(pcap.Packet) { packets++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trafficgen.NewBackgroundStream(rng.New(int64(i)), start, 16*time.Hour).Drain(sink)
	}
	b.StopTimer()
	b.ReportMetric(float64(packets)/float64(b.N), "packets/day")
}

// --- Fleet engine ----------------------------------------------------

// fleetBenchConfig is the shared shape of the fleet benchmarks: 32
// heterogeneous homes, 2 days each. BenchmarkFleet and its sequential
// baseline must use identical home configs so homes_per_sec deltas
// measure the engine, not the workload.
func fleetBenchConfig() scenario.FleetConfig {
	return scenario.FleetConfig{Homes: 32, Days: 2, Seed: 1}
}

// BenchmarkFleet measures multi-tenant throughput end to end: each
// iteration builds and runs a whole heterogeneous fleet through the
// sharded manager. homes_per_sec is the fleet engine's headline
// number, tracked by the CI bench gate; its speedup over
// BenchmarkFleetSequentialBaseline comes from shard fan-out across
// the worker pool plus floorplans built once per fleet instead of
// once per home.
func BenchmarkFleet(b *testing.B) {
	cfg := fleetBenchConfig()
	cfg.Plans = scenario.NewFleetPlans()
	var last *scenario.FleetOutcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := scenario.Fleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cfg.Homes)*float64(b.N)/secs, "homes_per_sec")
		b.ReportMetric(float64(last.HomeDays)*float64(b.N)/secs, "home_days_per_sec")
	}
	b.ReportMetric(100*last.Confusion.Accuracy(), "pct_accuracy")
}

// BenchmarkFleetSequentialBaseline is the naive loop the fleet engine
// replaces: the same homes, one scenario.Run after another, each home
// paying for its own floorplans. The BenchmarkFleet /
// BenchmarkFleetSequentialBaseline homes_per_sec ratio is the
// engine's measured speedup.
func BenchmarkFleetSequentialBaseline(b *testing.B) {
	cfg := fleetBenchConfig()
	var last *scenario.Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for h := 0; h < cfg.Homes; h++ {
			out, err := scenario.Run(scenario.FleetHomeConfig(cfg.Seed, h, cfg.Days, scenario.FleetPlans{}))
			if err != nil {
				b.Fatal(err)
			}
			last = out
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cfg.Homes)*float64(b.N)/secs, "homes_per_sec")
	}
	b.ReportMetric(100*last.Confusion.Accuracy(), "pct_accuracy")
}

// --- Figure 3 --------------------------------------------------------

func BenchmarkFig3SpikeTrace(b *testing.B) {
	var spikes []scenario.Fig3Spike
	for i := 0; i < b.N; i++ {
		spikes = scenario.Fig3Trace(int64(i + 1))
	}
	b.ReportMetric(float64(len(spikes)), "spikes")
}

// --- Figure 4 (wire plane: real sockets) -----------------------------

func BenchmarkFig4ProxyHold(b *testing.B) {
	var cases []scenario.Fig4Case
	for i := 0; i < b.N; i++ {
		var err error
		cases, err = scenario.HoldReleaseDrop(50 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	closed := 0.0
	if cases[2].SessionClosed {
		closed = 1
	}
	b.ReportMetric(closed, "case3_session_closed")
}

// --- Figures 6 and 7 -------------------------------------------------

func BenchmarkFig6DelayCases(b *testing.B) {
	var study *scenario.DelayStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = scenario.QueryDelayStudy(scenario.Echo, 50, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*float64(study.CaseA)/float64(study.CaseA+study.CaseB), "pct_no_delay")
}

func BenchmarkFig7QueryDelay(b *testing.B) {
	speakers := []scenario.SpeakerKind{scenario.Echo, scenario.GHM}
	var echo, ghm *scenario.DelayStudy
	for i := 0; i < b.N; i++ {
		studies, err := scenario.QueryDelayStudies(speakers, 50, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		echo, ghm = studies[0], studies[1]
	}
	b.ReportMetric(echo.Summary.Mean, "echo_mean_s")
	b.ReportMetric(ghm.Summary.Mean, "ghm_mean_s")
	b.ReportMetric(100*echo.Under2s, "pct_echo_under2s")
}

// --- Figures 8 and 9 -------------------------------------------------

func benchRSSIMap(b *testing.B, spot string) {
	b.Helper()
	plan := floorplan.House()
	var entries []scenario.RSSIMapEntry
	for i := 0; i < b.N; i++ {
		var err error
		entries, err = scenario.RSSIMap(plan, spot, radio.Pixel5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(entries)), "locations")
}

func BenchmarkFig8RSSIMap(b *testing.B) { benchRSSIMap(b, "A") }
func BenchmarkFig9RSSIMap(b *testing.B) { benchRSSIMap(b, "B") }

// --- Figure 10 -------------------------------------------------------

func BenchmarkFig10TraceClassify(b *testing.B) {
	plan := floorplan.House()
	var study *scenario.TraceStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = scenario.StairTraceStudy(plan, "A", "bench", radio.Pixel5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*study.Accuracy, "pct_accuracy")
	b.ReportMetric(100*study.SlopeInterceptAccuracy, "pct_slope_intercept")
}

// --- §V-A2 corpus analysis -------------------------------------------

func BenchmarkCorpusDelayAnalysis(b *testing.B) {
	var a scenario.CorpusAnalysis
	for i := 0; i < b.N; i++ {
		a = scenario.AnalyzeCorpus(corpus.Alexa(), 1622*time.Millisecond)
	}
	b.ReportMetric(a.MeanWords, "mean_words")
	b.ReportMetric(100*a.NoDelayAtMean, "pct_no_delay")
}

// --- Ablations (DESIGN.md) -------------------------------------------

// BenchmarkAblationNaiveDetector quantifies Table I's motivation: the
// naive any-spike detector's precision collapse.
func BenchmarkAblationNaiveDetector(b *testing.B) {
	var last scenario.RecognitionResult
	for i := 0; i < b.N; i++ {
		last = scenario.TrafficRecognition(134, int64(i+1))
	}
	b.ReportMetric(100*last.Naive.Precision(), "pct_naive_precision")
	b.ReportMetric(100*last.Confusion.Precision(), "pct_phase_precision")
}

// BenchmarkAblationDNSOnly quantifies §IV-B1's reconnection problem:
// DNS-only server tracking loses the AVS flow after a cached
// reconnect; signature tracking follows it.
func BenchmarkAblationDNSOnly(b *testing.B) {
	lost, followed := 0, 0
	for i := 0; i < b.N; i++ {
		src := rng.New(int64(i + 1))
		echo := trafficgen.NewEcho(src)
		boot, err := echo.Boot(time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC))
		if err != nil {
			b.Fatal(err)
		}
		dnsOnly := recognize.NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
		dnsOnly.UseSignature = false
		full := recognize.NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
		for _, p := range boot {
			dnsOnly.Observe(p)
			full.Observe(p)
		}
		reconnect := echo.Reconnect(time.Date(2023, 3, 1, 1, 0, 0, 0, time.UTC), false)
		for _, p := range reconnect {
			dnsOnly.Observe(p)
			full.Observe(p)
		}
		if addr, _ := dnsOnly.Current(); addr != echo.AVSAddr() {
			lost++
		}
		if addr, _ := full.Current(); addr == echo.AVSAddr() {
			followed++
		}
	}
	b.ReportMetric(100*float64(lost)/float64(b.N), "pct_dns_only_lost")
	b.ReportMetric(100*float64(followed)/float64(b.N), "pct_signature_followed")
}

// BenchmarkAblationNoFloorTracking quantifies §V-B2: recall collapse
// in the house without the floor-level mechanism.
func BenchmarkAblationNoFloorTracking(b *testing.B) {
	var with, without *scenario.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		with, err = scenario.Run(scenario.Config{
			Plan: floorplan.House(), Spot: "A", Speaker: scenario.Echo,
			Devices: twoPhoneSpecs(), Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		without, err = scenario.Run(scenario.Config{
			Plan: floorplan.House(), Spot: "A", Speaker: scenario.Echo,
			Devices: twoPhoneSpecs(), Seed: int64(i + 1),
			DisableFloorTracking: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*with.Confusion.Recall(), "pct_recall_tracking")
	b.ReportMetric(100*without.Confusion.Recall(), "pct_recall_ablated")
}

// BenchmarkAblationSlopeOnly quantifies the feature ablation of the
// stair-trace classifier: slope-only vs the paper's slope+intercept
// vs the full vector with the fit residual.
func BenchmarkAblationSlopeOnly(b *testing.B) {
	plan := floorplan.House()
	var study *scenario.TraceStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = scenario.StairTraceStudy(plan, "B", "ablation", radio.Pixel5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*study.SlopeOnlyAccuracy, "pct_slope_only")
	b.ReportMetric(100*study.SlopeInterceptAccuracy, "pct_slope_intercept")
	b.ReportMetric(100*study.Accuracy, "pct_full")
}

// BenchmarkAblationSingleSample quantifies the measurement-averaging
// choice: single-packet RSSI readings versus the 16-sample protocol.
func BenchmarkAblationSingleSample(b *testing.B) {
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 1)
	spot, _ := plan.Spot("A")
	loc := plan.MustLocation(24)
	var singleVar, avgVar float64
	for i := 0; i < b.N; i++ {
		src := rng.New(int64(i + 1))
		mean := model.Mean(spot.Pos, loc.Pos)
		var single, avg []float64
		for j := 0; j < 50; j++ {
			single = append(single, model.Sample(spot.Pos, loc.Pos, radio.Pixel5, src)-mean)
			avg = append(avg, model.AverageAt(spot.Pos, loc.Pos, radio.Pixel5, src)-mean)
		}
		singleVar = stats.Std(single)
		avgVar = stats.Std(avg)
	}
	b.ReportMetric(singleVar, "single_sample_std_db")
	b.ReportMetric(avgVar, "averaged_std_db")
}

// BenchmarkAttackVectorStudy exercises every threat vector of the
// paper's model — block rates must be vector-independent.
func BenchmarkAttackVectorStudy(b *testing.B) {
	var outcomes []scenario.VectorOutcome
	for i := 0; i < b.N; i++ {
		var err error
		outcomes, err = scenario.AttackVectorStudy(9, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 1.0
	for _, vo := range outcomes {
		if r := vo.BlockRate(); r < worst {
			worst = r
		}
	}
	b.ReportMetric(100*worst, "pct_worst_vector_block_rate")
}

// BenchmarkRobustnessUnderLoss probes the recognizer against capture
// loss — a deployment-assumption check, not a paper experiment.
func BenchmarkRobustnessUnderLoss(b *testing.B) {
	var points []scenario.ImpairmentPoint
	for i := 0; i < b.N; i++ {
		points = scenario.RecognitionUnderImpairment(60, []netem.Config{
			{},
			{LossRate: 0.05},
		}, int64(i+1))
	}
	b.ReportMetric(100*points[0].Confusion.Recall(), "pct_recall_clean")
	b.ReportMetric(100*points[1].Confusion.Recall(), "pct_recall_5pct_loss")
}

// BenchmarkAdaptiveSignatureLearning measures the §VII extension:
// relearning a changed fingerprint from labelled connections.
func BenchmarkAdaptiveSignatureLearning(b *testing.B) {
	relearned := 0
	for i := 0; i < b.N; i++ {
		src := rng.New(int64(i + 1))
		echo := trafficgen.NewEcho(src)
		tr := recognize.NewAdaptiveTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
		boot, err := echo.Boot(time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range boot {
			tr.Observe(p)
		}
		echo.SetConnectSignature([]int{88, 42, 700, 140, 77, 140, 200, 81})
		at := time.Date(2023, 3, 1, 1, 0, 0, 0, time.UTC)
		for j := 0; j < 4; j++ {
			packets := echo.Reconnect(at, true)
			for _, p := range packets {
				tr.Observe(p)
			}
			at = at.Add(time.Minute)
		}
		packets := echo.Reconnect(at, false)
		for _, p := range packets {
			tr.Observe(p)
		}
		if addr, ok := tr.Current(); ok && addr == echo.AVSAddr() {
			relearned++
		}
	}
	b.ReportMetric(100*float64(relearned)/float64(b.N), "pct_relearned")
}

// BenchmarkAblationNoiseSensitivity sweeps the RF-noise scale — the
// §IV-C robustness caveat quantified.
func BenchmarkAblationNoiseSensitivity(b *testing.B) {
	var points []scenario.SensitivityPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = scenario.NoiseSensitivity([]float64{1, 8}, 3, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*points[0].Confusion.Accuracy(), "pct_acc_1x")
	b.ReportMetric(100*points[1].Confusion.Accuracy(), "pct_acc_8x")
}

// --- Micro-benchmarks of the hot paths --------------------------------

func BenchmarkSpikeClassification(b *testing.B) {
	echo := trafficgen.NewEcho(rng.New(1))
	echo.AnomalyRate = 0
	inv := echo.Invocation(time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC), 1)
	lengths := inv.CommandSpike().Lengths()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recognize.ClassifyEchoSpike(lengths) != recognize.ClassCommand {
			b.Fatal("misclassified")
		}
	}
}

func BenchmarkSignatureTracking(b *testing.B) {
	echo := trafficgen.NewEcho(rng.New(2))
	boot, err := echo.Boot(time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := recognize.NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
		for _, p := range boot {
			tr.Observe(p)
		}
		if _, ok := tr.Current(); !ok {
			b.Fatal("tracker lost the server")
		}
	}
}

func BenchmarkTLSRecordParse(b *testing.B) {
	payload, err := pcap.AppData(1460)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pcap.ParseRecords(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadioSample(b *testing.B) {
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 1)
	spot, _ := plan.Spot("A")
	loc := plan.MustLocation(55)
	src := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Sample(spot.Pos, loc.Pos, radio.Pixel5, src)
	}
}

// proxyBenchHarness stands up the transparent proxy between a raw
// client connection and a byte-discarding upstream sink, so the
// benchmark loop measures only the proxy's forwarding path (the emul
// framing layer allocates per message and would mask it). It returns
// the client conn, the cumulative byte count at the sink, and a
// channel closed when the sink sees EOF.
func proxyBenchHarness(b *testing.B) (client *net.TCPConn, sunk *atomic.Int64, done chan struct{}, p *proxy.TCP) {
	b.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = lis.Close() })

	sunk = &atomic.Int64{}
	done = make(chan struct{})
	go func() {
		defer close(done)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			sunk.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()

	p, err = proxy.NewTCP("127.0.0.1:0", func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", lis.Addr().String())
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = p.Close() })

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = conn.Close() })
	return conn.(*net.TCPConn), sunk, done, p
}

// awaitSink blocks until the upstream sink has absorbed want bytes.
func awaitSink(b *testing.B, sunk *atomic.Int64, want int64) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sunk.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("sink stalled at %d of %d bytes", sunk.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkProxyThroughput measures the pass-through path of the
// transparent proxy on loopback: raw 4 KiB writes through the proxy
// into a discard sink. The path is zero-copy (the read buffer goes
// straight to the upstream write) and must stay at 0 allocs/op.
func BenchmarkProxyThroughput(b *testing.B) {
	client, sunk, done, _ := proxyBenchHarness(b)

	const chunk = 4096
	payload := make([]byte, chunk)
	// Prime the session (buffer pool, TCP windows) before measuring.
	if _, err := client.Write(payload); err != nil {
		b.Fatal(err)
	}
	awaitSink(b, sunk, chunk)

	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Barrier: half-close and wait for EOF at the sink so every sent
	// byte is known to have traversed the proxy.
	if err := client.CloseWrite(); err != nil {
		b.Fatal(err)
	}
	<-done
	if got, want := sunk.Load(), int64(chunk)*int64(b.N+1); got != want {
		b.Fatalf("sink saw %d bytes, want %d", got, want)
	}
}

// BenchmarkProxyHeldThroughput measures the hold path: each iteration
// holds the session, pushes 8 chunks into the hold queue, and
// releases them upstream — the Fig. 4 case II transport cost. Hold
// copies land in pooled buffers, so allocs/op stays flat no matter
// how many commands a session holds over its lifetime.
func BenchmarkProxyHeldThroughput(b *testing.B) {
	client, sunk, _, p := proxyBenchHarness(b)

	const (
		chunk     = 4096
		perHold   = 8
		holdBytes = chunk * perHold
	)
	payload := make([]byte, chunk)
	if _, err := client.Write(payload); err != nil {
		b.Fatal(err)
	}
	awaitSink(b, sunk, chunk)
	sessions := p.Sessions()
	if len(sessions) != 1 {
		b.Fatalf("sessions = %d, want 1", len(sessions))
	}
	sess := sessions[0]

	b.SetBytes(holdBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Hold()
		for j := 0; j < perHold; j++ {
			if _, err := client.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		// The hold queue owns copies of all chunks before release;
		// coalescing by the TCP stack may merge writes, so wait on
		// bytes, not chunk count.
		deadline := time.Now().Add(10 * time.Second)
		for sess.QueuedBytes() < holdBytes {
			if time.Now().After(deadline) {
				b.Fatalf("hold queue stalled at %d of %d bytes", sess.QueuedBytes(), holdBytes)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := sess.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	awaitSink(b, sunk, int64(chunk)+int64(holdBytes)*int64(b.N))
}

func BenchmarkTraceFeatureExtraction(b *testing.B) {
	plan := floorplan.House()
	model := radio.NewModel(plan, radio.DefaultParams(), 1)
	spot, _ := plan.Spot("A")
	src := rng.New(4)
	path, err := mobility.NewRoutePath(plan.Routes["up"], mobility.DefaultSpeed)
	if err != nil {
		b.Fatal(err)
	}
	sc := ble.NewScanner(model, radio.Pixel5, src)
	trace := decision.RecordTrace(sc, ble.NewAdvertiser(spot.Pos), path, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decision.ExtractFeatures(trace); err != nil {
			b.Fatal(err)
		}
	}
}
