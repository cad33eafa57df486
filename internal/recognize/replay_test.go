package recognize

import (
	"bytes"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

func TestReplayEmptyCapture(t *testing.T) {
	stats := Replay(NewEcho(trafficgen.EchoAddr), nil)
	if stats != (ReplayStats{}) {
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

	stats := Replay(NewEcho(trafficgen.EchoAddr), capture)
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

	direct := Replay(NewEcho(trafficgen.EchoAddr), capture)

	var buf bytes.Buffer
	if err := pcap.WriteCapture(&buf, capture); err != nil {
		t.Fatal(err)
	}
	parsed, err := pcap.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := Replay(NewEcho(trafficgen.EchoAddr), parsed)
	if direct != replayed {
		t.Fatalf("replay diverged: %+v vs %+v", direct, replayed)
	}
}

// TestReplayIgnoresChatter replays 20 minutes of Echo traffic with and
// without the LAN's other hosts mixed in. Chatter is not part of any
// spike, so it must neither move a spike's release nor cost the replay
// an allocation.
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

	replay := func(packets []pcap.Packet) (ReplayStats, []trace.Span) {
		rec := NewEcho(trafficgen.EchoAddr)
		rec.Tracer = trace.New(256)
		return Replay(rec, packets), rec.Tracer.Snapshot()
	}
	alone, aloneSpans := replay(speaker)
	mixed, mixedSpans := replay(merged)
	if alone.Holds != mixed.Holds || alone.Commands != mixed.Commands || alone.Releases != mixed.Releases {
		t.Fatalf("chatter changed the replay: alone %+v, mixed %+v", alone, mixed)
	}
	if len(aloneSpans) != len(mixedSpans) {
		t.Fatalf("classify spans: alone %d, mixed %d", len(aloneSpans), len(mixedSpans))
	}
	for i := range aloneSpans {
		if !aloneSpans[i].End.Equal(mixedSpans[i].End) {
			t.Errorf("spike %d classified at %v with chatter, %v without", i, mixedSpans[i].End, aloneSpans[i].End)
		}
	}

	aloneAllocs := testing.AllocsPerRun(20, func() { replay(speaker) })
	mixedAllocs := testing.AllocsPerRun(20, func() { replay(merged) })
	if mixedAllocs > aloneAllocs {
		t.Errorf("replay with %d chatter packets allocates %.0f times, %.0f without", len(chatter), mixedAllocs, aloneAllocs)
	}
}
