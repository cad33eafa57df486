// Package trace is VoiceGuard's per-command lifecycle tracing layer.
//
// The guard assigns each traffic spike a monotonically unique command
// ID the moment it starts being held, and every pipeline stage —
// recognition, the guard's hold bookkeeping, the Decision Module
// query, and the transport proxy's hold/release/drop — records spans
// carrying that ID, so one voice command's full journey through
// Fig. 2 can be reconstructed end to end.
//
// Recording is designed for the hot path: spans land in a lock-free
// ring-buffer flight recorder (the last N spans are always dumpable,
// on demand or on an anomaly such as a blocked verdict), and the
// optional structured logger and JSONL sink are attached through an
// atomically loaded configuration so an unconfigured tracer costs one
// atomic add and one atomic store per span.
//
// Like the metrics package, packages record through the process-wide
// Default tracer; exporters (JSONL, Chrome trace_event) and the
// /debug/trace HTTP handler read its flight recorder.
package trace

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// CommandID identifies one voice-command episode across the pipeline.
// IDs are assigned from a process-wide monotonic counter; zero means
// "no command" (ambient spans not tied to an episode).
type CommandID uint64

// Pipeline stages, used as span Stage values so exported traces group
// by the Fig. 2 module that produced them.
const (
	StageRecognize = "recognize" // Voice Command Traffic Recognition
	StageGuard     = "guard"     // Traffic Handler hold bookkeeping
	StageDecision  = "decision"  // Decision Module query
	StagePush      = "push"      // FCM push channel: sends, retries, replies
	StageProxy     = "proxy"     // transport-level hold/release/drop
	StageLive      = "live"      // wire-plane burst handling
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: value} }

// Int64 returns a 64-bit integer attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// Float returns a floating-point attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Duration returns a duration attribute, exported in seconds.
func Duration(key string, value time.Duration) Attr {
	return Attr{Key: key, Value: value.Seconds()}
}

// Span is one timed (or instantaneous) slice of a command's
// lifecycle. Start == End marks an instant event.
type Span struct {
	Command CommandID
	Stage   string
	Name    string
	Start   time.Time
	End     time.Time
	Attrs   []Attr
}

// Event builds an instantaneous span.
func Event(id CommandID, stage, name string, at time.Time, attrs ...Attr) Span {
	return Span{Command: id, Stage: stage, Name: name, Start: at, End: at, Attrs: attrs}
}

// Duration returns the span's length (zero for instant events).
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Attr returns the value of the named attribute, or nil.
func (s Span) Attr(key string) any {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Standard attribute keys and outcome values shared by the
// instrumented packages, so exported traces stay greppable.
const (
	AttrOutcome = "outcome"

	OutcomeRelease = "release" // held traffic forwarded to the cloud
	OutcomeDrop    = "drop"    // held traffic discarded (blocked command)
)

// sinkConfig is the tracer's cold-path configuration, swapped
// atomically so Record stays lock-free when nothing is attached.
type sinkConfig struct {
	logger      *slog.Logger
	sink        func(Span)
	anomalyHold time.Duration
	onAnomaly   func(reason string, recent []Span)
}

// Tracer assigns command IDs and records spans.
type Tracer struct {
	nextID atomic.Uint64
	ring   *Recorder
	cfg    atomic.Pointer[sinkConfig]
}

// DefaultRecorderSize is the Default tracer's flight-recorder
// capacity (spans).
const DefaultRecorderSize = 4096

// New returns a tracer whose flight recorder keeps the last
// recorderSize spans (rounded up to a power of two).
func New(recorderSize int) *Tracer {
	return &Tracer{ring: NewRecorder(recorderSize)}
}

// Default is the process-wide tracer the instrumented packages record
// into.
var Default = New(DefaultRecorderSize)

// Or returns t, or Default when t is nil — the idiom for optional
// Tracer fields on instrumented types.
func Or(t *Tracer) *Tracer {
	if t == nil {
		return Default
	}
	return t
}

// NextID allocates the next command ID. Safe for concurrent use.
func (t *Tracer) NextID() CommandID { return CommandID(t.nextID.Add(1)) }

// Recorder returns the tracer's flight recorder.
func (t *Tracer) Recorder() *Recorder { return t.ring }

// Snapshot returns the flight recorder's contents, oldest first.
func (t *Tracer) Snapshot() []Span { return t.ring.Snapshot() }

// SetLogger attaches (or, with nil, detaches) a structured logger.
// Every recorded span is logged at Debug, its name as the message and
// its stage and command ID as standard attributes (no string is built
// per span); anomalies are logged at Warn.
func (t *Tracer) SetLogger(l *slog.Logger) {
	t.updateConfig(func(c *sinkConfig) { c.logger = l })
}

// Logger returns the attached logger, or slog.Default() when none is
// attached — callers can always log through it.
func (t *Tracer) Logger() *slog.Logger {
	if c := t.cfg.Load(); c != nil && c.logger != nil {
		return c.logger
	}
	return slog.Default()
}

// SetSink attaches (or detaches) a streaming span consumer, e.g. a
// JSONL file writer. The sink runs synchronously on the recording
// goroutine.
func (t *Tracer) SetSink(fn func(Span)) {
	t.updateConfig(func(c *sinkConfig) { c.sink = fn })
}

// SetAnomalyHook installs fn, called with a flight-recorder snapshot
// whenever a recorded span carries outcome=drop or (when holdLimit is
// positive) a hold span exceeds holdLimit. fn runs synchronously; a
// nil fn removes the hook.
func (t *Tracer) SetAnomalyHook(holdLimit time.Duration, fn func(reason string, recent []Span)) {
	t.updateConfig(func(c *sinkConfig) {
		c.anomalyHold = holdLimit
		c.onAnomaly = fn
	})
}

// updateConfig swaps in a modified copy of the cold-path config.
func (t *Tracer) updateConfig(mutate func(*sinkConfig)) {
	for {
		old := t.cfg.Load()
		var next sinkConfig
		if old != nil {
			next = *old
		}
		mutate(&next)
		if t.cfg.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Record stores one completed span in the flight recorder and fans it
// out to the attached logger, sink, and anomaly hook.
func (t *Tracer) Record(s Span) {
	t.ring.Put(&s)
	c := t.cfg.Load()
	if c == nil {
		return
	}
	if c.sink != nil {
		c.sink(s)
	}
	anomaly := t.anomalyReason(c, s)
	if c.logger != nil {
		level := slog.LevelDebug
		if anomaly != "" {
			level = slog.LevelWarn
		}
		//vglint:allow tracectx slog bridge: the span carries its CommandID explicitly in logAttrs, nothing rides the ctx here
		c.logger.LogAttrs(context.Background(), level, s.Name, logAttrs(s)...)
	}
	if anomaly != "" && c.onAnomaly != nil {
		c.onAnomaly(anomaly, t.ring.Snapshot())
	}
}

// anomalyReason classifies a span as anomalous: a dropped/blocked
// command, or a hold longer than the configured limit.
func (t *Tracer) anomalyReason(c *sinkConfig, s Span) string {
	if c.onAnomaly == nil && c.logger == nil {
		return ""
	}
	if v, ok := s.Attr(AttrOutcome).(string); ok && v == OutcomeDrop {
		return "blocked command"
	}
	if c.anomalyHold > 0 && s.Duration() > c.anomalyHold {
		return "hold exceeded limit"
	}
	return ""
}

// logAttrs renders a span as slog attributes, stage and command ID
// first.
func logAttrs(s Span) []slog.Attr {
	attrs := make([]slog.Attr, 0, len(s.Attrs)+3)
	attrs = append(attrs,
		slog.String("stage", s.Stage),
		slog.Uint64("command_id", uint64(s.Command)),
		slog.Duration("dur", s.Duration()))
	for _, a := range s.Attrs {
		attrs = append(attrs, slog.Any(a.Key, a.Value))
	}
	return attrs
}

// ctxKey carries a CommandID through a context.
type ctxKey struct{}

// WithCommand returns a context carrying the command ID — how the
// wire plane hands the ID to a DecisionFunc.
func WithCommand(ctx context.Context, id CommandID) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// CommandFromContext extracts the command ID placed by WithCommand.
func CommandFromContext(ctx context.Context) (CommandID, bool) {
	id, ok := ctx.Value(ctxKey{}).(CommandID)
	return id, ok
}
