package trace

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)

func TestNextIDMonotonic(t *testing.T) {
	tr := New(64)
	a, b, c := tr.NextID(), tr.NextID(), tr.NextID()
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("ids = %d,%d,%d, want 1,2,3", a, b, c)
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	tr := New(64)
	id := tr.NextID()
	tr.Record(Span{
		Command: id, Stage: StageGuard, Name: "hold",
		Start: t0, End: t0.Add(time.Second),
		Attrs: []Attr{String(AttrOutcome, OutcomeRelease), Int("held_packets", 7)},
	})
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("snapshot = %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Command != id || s.Stage != StageGuard || s.Duration() != time.Second {
		t.Fatalf("unexpected span %+v", s)
	}
	if s.Attr(AttrOutcome) != OutcomeRelease {
		t.Fatalf("outcome attr = %v", s.Attr(AttrOutcome))
	}
	if s.Attr("held_packets") != 7 {
		t.Fatalf("held_packets attr = %v", s.Attr("held_packets"))
	}
	if s.Attr("missing") != nil {
		t.Fatal("missing attr should be nil")
	}
}

func TestEventIsInstant(t *testing.T) {
	ev := Event(3, StageRecognize, "marker", t0, String("kind", "p138"))
	if ev.Duration() != 0 {
		t.Fatalf("event duration = %v, want 0", ev.Duration())
	}
	if ev.Start != t0 || ev.End != t0 {
		t.Fatal("event start/end not pinned to at")
	}
}

func TestSinkReceivesEverySpan(t *testing.T) {
	tr := New(64)
	var got []Span
	tr.SetSink(func(s Span) { got = append(got, s) })
	for i := 0; i < 5; i++ {
		tr.Record(Event(tr.NextID(), StageLive, "burst", t0))
	}
	if len(got) != 5 {
		t.Fatalf("sink saw %d spans, want 5", len(got))
	}
	tr.SetSink(nil)
	tr.Record(Event(tr.NextID(), StageLive, "burst", t0))
	if len(got) != 5 {
		t.Fatal("detached sink still invoked")
	}
}

func TestAnomalyHookOnDrop(t *testing.T) {
	tr := New(64)
	var reasons []string
	var lastDump int
	tr.SetAnomalyHook(0, func(reason string, recent []Span) {
		reasons = append(reasons, reason)
		lastDump = len(recent)
	})

	tr.Record(Event(tr.NextID(), StageGuard, "hold", t0, String(AttrOutcome, OutcomeRelease)))
	if len(reasons) != 0 {
		t.Fatal("released command flagged as anomaly")
	}
	tr.Record(Event(tr.NextID(), StageGuard, "hold", t0, String(AttrOutcome, OutcomeDrop)))
	if len(reasons) != 1 || reasons[0] != "blocked command" {
		t.Fatalf("reasons = %v, want [blocked command]", reasons)
	}
	if lastDump != 2 {
		t.Fatalf("anomaly dump had %d spans, want 2", lastDump)
	}
}

func TestAnomalyHookOnLongHold(t *testing.T) {
	tr := New(64)
	var reasons []string
	tr.SetAnomalyHook(500*time.Millisecond, func(reason string, recent []Span) {
		reasons = append(reasons, reason)
	})
	tr.Record(Span{Command: 1, Stage: StageGuard, Name: "hold", Start: t0, End: t0.Add(100 * time.Millisecond)})
	tr.Record(Span{Command: 2, Stage: StageGuard, Name: "hold", Start: t0, End: t0.Add(2 * time.Second)})
	if len(reasons) != 1 || reasons[0] != "hold exceeded limit" {
		t.Fatalf("reasons = %v, want [hold exceeded limit]", reasons)
	}
}

func TestLoggerGetsCommandID(t *testing.T) {
	tr := New(64)
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLogger(logger)
	tr.Record(Span{Command: 42, Stage: StageDecision, Name: "rssi", Start: t0, End: t0.Add(time.Second)})
	out := buf.String()
	if !strings.Contains(out, `"command_id":42`) {
		t.Fatalf("log line missing command_id: %s", out)
	}
	if !strings.Contains(out, `"msg":"rssi"`) || !strings.Contains(out, `"stage":"decision"`) {
		t.Fatalf("log line missing span name or stage: %s", out)
	}
}

func TestAnomalyLogsAtWarn(t *testing.T) {
	tr := New(64)
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "text", slog.LevelWarn)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLogger(logger)
	tr.Record(Event(1, StageGuard, "hold", t0, String(AttrOutcome, OutcomeRelease)))
	if buf.Len() != 0 {
		t.Fatalf("debug span leaked through warn level: %s", buf.String())
	}
	tr.Record(Event(2, StageGuard, "hold", t0, String(AttrOutcome, OutcomeDrop)))
	if !strings.Contains(buf.String(), "level=WARN") {
		t.Fatalf("dropped command not logged at warn: %s", buf.String())
	}
}

func TestContextRoundTrip(t *testing.T) {
	if _, ok := CommandFromContext(context.Background()); ok {
		t.Fatal("empty context produced a command id")
	}
	ctx := WithCommand(context.Background(), 9)
	id, ok := CommandFromContext(ctx)
	if !ok || id != 9 {
		t.Fatalf("round trip = (%d, %v), want (9, true)", id, ok)
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != Default {
		t.Fatal("Or(nil) != Default")
	}
	tr := New(16)
	if Or(tr) != tr {
		t.Fatal("Or(t) != t")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError, "off": LevelOff, "": LevelOff,
		"INFO": slog.LevelInfo,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

func TestNewLoggerRejectsBadFormat(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "xml", slog.LevelInfo); err == nil {
		t.Fatal("NewLogger accepted xml")
	}
}

func BenchmarkRecordUnconfigured(b *testing.B) {
	tr := New(DefaultRecorderSize)
	s := Span{Command: 1, Stage: StageGuard, Name: "hold", Start: t0, End: t0.Add(time.Second)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(s)
	}
}

func BenchmarkRecordParallel(b *testing.B) {
	tr := New(DefaultRecorderSize)
	s := Span{Command: 1, Stage: StageGuard, Name: "hold", Start: t0, End: t0.Add(time.Second)}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(s)
		}
	})
}
