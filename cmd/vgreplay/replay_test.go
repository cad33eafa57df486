package main

import (
	"bytes"
	"testing"
	"time"

	"voiceguard/internal/floorplan"
	"voiceguard/internal/pcap"
	"voiceguard/internal/radio"
	"voiceguard/internal/recognize"
	"voiceguard/internal/rng"
	"voiceguard/internal/scenario"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

var t0 = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

// newEcho returns an Echo recognizer whose spans, and so the replay
// guard's, go to a tracer of the test's own.
func newEcho() *recognize.Recognizer {
	rec := recognize.NewEcho(trafficgen.EchoAddr)
	rec.Tracer = trace.New(1024)
	return rec
}

func TestReplayEmptyCapture(t *testing.T) {
	stats := replay("echo", newEcho(), nil)
	if stats != (replayStats{}) {
		t.Fatalf("empty replay produced %+v", stats)
	}
}

func TestReplayCountsInvocations(t *testing.T) {
	src := rng.New(51)
	echo := trafficgen.NewEcho(src)
	echo.AnomalyRate = 0

	var capture []pcap.Packet
	boot, err := echo.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	capture = append(capture, boot...)

	const invocations = 5
	totalResponses := 0
	at := t0.Add(5 * time.Minute)
	for i := 0; i < invocations; i++ {
		n := 1 + src.IntN(2)
		totalResponses += n
		inv := echo.Invocation(at, n)
		capture = append(capture, inv.All()...)
		at = at.Add(3 * time.Minute)
	}

	stats := replay("echo", newEcho(), capture)
	if stats.Commands != invocations {
		t.Fatalf("commands = %d, want %d", stats.Commands, invocations)
	}
	// Every command spike was held first, plus the boot connect spike.
	if stats.Holds != invocations+totalResponses+1 {
		t.Fatalf("holds = %d, want %d", stats.Holds, invocations+totalResponses+1)
	}
	// Responses and the boot spike are released.
	if stats.Releases != totalResponses+1 {
		t.Fatalf("releases = %d, want %d", stats.Releases, totalResponses+1)
	}
	if stats.Packets != len(capture) {
		t.Fatalf("packets = %d, want %d", stats.Packets, len(capture))
	}
	if stats.Span <= 0 {
		t.Fatal("span not computed")
	}
}

func TestReplayMatchesFileRoundTrip(t *testing.T) {
	// Replay over a serialised-then-parsed capture must agree with
	// replay over the original packets.
	src := rng.New(52)
	echo := trafficgen.NewEcho(src)
	echo.AnomalyRate = 0
	boot, err := echo.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	capture := append(boot, echo.Invocation(t0.Add(time.Minute), 2).All()...)

	direct := replay("echo", newEcho(), capture)

	var buf bytes.Buffer
	if err := pcap.WriteCapture(&buf, capture); err != nil {
		t.Fatal(err)
	}
	parsed, err := pcap.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := replay("echo", newEcho(), parsed)
	if direct != replayed {
		t.Fatalf("replay diverged: %+v vs %+v", direct, replayed)
	}
}

// TestReplayIgnoresChatter replays 20 minutes of Echo traffic with and
// without the LAN's other hosts mixed in. Chatter is not part of any
// spike, so it must neither move a span of the guard's nor cost the
// replay an allocation.
func TestReplayIgnoresChatter(t *testing.T) {
	src := rng.New(52)
	echo := trafficgen.NewEcho(src.Split("echo"))
	echo.AnomalyRate = 0
	speaker, err := echo.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	speaker = append(speaker, echo.Heartbeats(t0, 20*time.Minute)...)
	for at := t0.Add(2 * time.Minute); at.Before(t0.Add(18 * time.Minute)); at = at.Add(4 * time.Minute) {
		speaker = append(speaker, echo.Invocation(at, 2).All()...)
	}
	pcap.SortByTime(speaker)
	chatter := trafficgen.Background(src.Split("bg"), t0, 20*time.Minute)
	merged := append(append([]pcap.Packet(nil), speaker...), chatter...)
	pcap.SortByTime(merged)

	run := func(packets []pcap.Packet) (replayStats, []trace.Span) {
		rec := newEcho()
		return replay("echo", rec, packets), rec.Tracer.Snapshot()
	}
	alone, aloneSpans := run(speaker)
	mixed, mixedSpans := run(merged)
	if alone.Holds != mixed.Holds || alone.Commands != mixed.Commands || alone.Releases != mixed.Releases {
		t.Fatalf("chatter changed the replay: alone %+v, mixed %+v", alone, mixed)
	}
	if len(aloneSpans) != len(mixedSpans) {
		t.Fatalf("spans: alone %d, mixed %d", len(aloneSpans), len(mixedSpans))
	}
	for i := range aloneSpans {
		a, m := aloneSpans[i], mixedSpans[i]
		if a.Name != m.Name || !a.End.Equal(m.End) {
			t.Errorf("span %d: %s ends %v with chatter, %s at %v without", i, m.Name, m.End, a.Name, a.End)
		}
	}

	aloneAllocs := testing.AllocsPerRun(20, func() { run(speaker) })
	mixedAllocs := testing.AllocsPerRun(20, func() { run(merged) })
	if mixedAllocs > aloneAllocs {
		t.Errorf("replay with %d chatter packets allocates %.0f times, %.0f without", len(chatter), mixedAllocs, aloneAllocs)
	}
}

// TestReplayMatchesRecordedRun replays two days of a simulated home,
// Echo among the LAN's chatter and a Google Home Mini, through the
// guard: it must recognize exactly the commands the run's own guard
// recognized, and every spike it holds, counted by the guard's
// spike_start events, must end as one command or one release.
func TestReplayMatchesRecordedRun(t *testing.T) {
	cases := []struct {
		speaker    string
		kind       scenario.SpeakerKind
		rec        func() *recognize.Recognizer
		background bool
	}{
		{"echo", scenario.Echo, func() *recognize.Recognizer { return recognize.NewEcho(trafficgen.EchoAddr) }, true},
		{"ghm", scenario.GHM, func() *recognize.Recognizer { return recognize.NewGHM(trafficgen.GHMAddr) }, false},
	}
	for _, c := range cases {
		t.Run(c.speaker, func(t *testing.T) {
			out, err := scenario.Run(scenario.Config{
				Plan:              floorplan.House(),
				Spot:              "A",
				Speaker:           c.kind,
				Devices:           []scenario.DeviceSpec{{ID: "p5", Hardware: radio.Pixel5}},
				Days:              2,
				RecordCapture:     true,
				BackgroundTraffic: c.background,
				Seed:              1,
			})
			if err != nil {
				t.Fatal(err)
			}
			recognized := 0
			for _, r := range out.Records {
				if r.Recognized {
					recognized++
				}
			}

			rec := c.rec()
			rec.Tracer = trace.New(0)
			starts := 0
			rec.Tracer.SetSink(func(s trace.Span) {
				if s.Name == "spike_start" {
					starts++
				}
			})
			stats := replay(c.speaker, rec, out.Capture)
			if recognized == 0 || stats.Commands != recognized {
				t.Fatalf("replay recognized %d commands, the run %d", stats.Commands, recognized)
			}
			if stats.Holds != stats.Commands+stats.Releases || stats.Holds != starts {
				t.Fatalf("held %d spikes (%d spike starts), %d commands + %d releases",
					stats.Holds, starts, stats.Commands, stats.Releases)
			}
		})
	}
}
