// Package guard wires VoiceGuard's two modules together (Fig. 2): the
// Traffic Processing Module (the recognize package's streaming
// recognizer plus the hold bookkeeping of the Traffic Handler) and the
// Decision Module (the decision package). It consumes the speaker's
// packet stream, holds recognized voice-command traffic, queries the
// Decision Module, and releases or drops the held packets when the
// verdict arrives.
//
// The same Guard runs both planes. In the simulation it reads a
// *simtime.Sim and has no HoldSink; on the wire it reads a wall-clock
// scheduler and holds the bytes of a real proxy session.
//
// Every spike becomes an episode with a unique command ID the moment
// it starts being held; the episode's recognition, hold, and decision
// phases are recorded as trace spans carrying that ID, so one
// command's lifecycle is reconstructable end to end.
package guard

import (
	"time"

	"voiceguard/internal/decision"
	"voiceguard/internal/metrics"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
)

// Metric names, as package-level constants (the vglint metriclabel
// rule): flat guard-level series plus the labeled families the
// dimensional plane reports per home/speaker/profile.
const (
	metricSpikes         = "guard_spikes_total"
	metricCommands       = "guard_commands_recognized_total"
	metricAllowed        = "guard_verdict_allow_total"
	metricBlocked        = "guard_verdict_block_total"
	metricNonCommands    = "guard_noncommand_spikes_total"
	metricHoldSeconds    = "guard_hold_seconds"
	metricQueriesQueued  = "guard_queries_queued_total"
	metricDegraded       = "guard_degraded_verdicts_total"
	metricUnknownSpeaker = "guard_router_unknown_speaker_total"

	// MetricVerdicts counts command verdicts per label set (the
	// Verdict label carries allow/block).
	MetricVerdicts = "guard_verdicts"
	// MetricHoldLatency is the per-label hold-duration distribution,
	// with per-bucket command-ID exemplars.
	MetricHoldLatency = "guard_hold_latency_seconds"
	// MetricDegraded counts degraded-policy verdicts per label set, so
	// fleet views can rank homes by how often their push path died.
	MetricDegraded = "guard_degraded_verdicts"
)

// Verdict label values of the MetricVerdicts family.
const (
	VerdictAllow = "allow"
	VerdictBlock = "block"
)

// Guard-level metrics: spike and command volume, verdict split, and
// the hold-duration distribution (the paper's Fig. 6/7 scale). The
// flat series stay authoritative for single-home runs; the labeled
// families add the per-tenant dimension.
var (
	mSpikes         = metrics.NewCounter(metricSpikes)
	mCommands       = metrics.NewCounter(metricCommands)
	mAllowed        = metrics.NewCounter(metricAllowed)
	mBlocked        = metrics.NewCounter(metricBlocked)
	mNonCommands    = metrics.NewCounter(metricNonCommands)
	mHoldSeconds    = metrics.NewHistogram(metricHoldSeconds)
	mQueriesQueued  = metrics.NewCounter(metricQueriesQueued)
	mDegraded       = metrics.NewCounter(metricDegraded)
	mUnknownSpeaker = metrics.NewCounter(metricUnknownSpeaker)
	mVerdictsVec    = metrics.NewCounterVec(MetricVerdicts)
	mHoldVec        = metrics.NewHistogramVec(MetricHoldLatency)
	mDegradedVec    = metrics.NewCounterVec(MetricDegraded)
)

// DegradedPolicy decides what happens to held traffic when the
// Decision Module reports the query path known-dead (Result.PathDead)
// instead of delivering an evidence-based verdict.
type DegradedPolicy int

const (
	// DegradedFailClosed blocks held traffic when the query path is
	// dead — the injection-resistant default: an attacker who can take
	// the push channel down must not gain a free pass.
	DegradedFailClosed DegradedPolicy = iota
	// DegradedFailOpen releases held traffic when the query path is
	// dead — the availability-first choice for speakers whose owners
	// prefer a working assistant over blocking during outages.
	DegradedFailOpen
)

// String names the policy for traces and reports.
func (p DegradedPolicy) String() string {
	if p == DegradedFailOpen {
		return "fail-open"
	}
	return "fail-closed"
}

// EventKind classifies a completed traffic-handling episode.
type EventKind int

// Event kinds.
const (
	// EventCommand: the spike was recognized as a voice command and
	// went through a Decision Module query.
	EventCommand EventKind = iota + 1
	// EventNonCommand: the spike was held briefly and released once
	// classification showed it was not a command (e.g. an Echo
	// response spike).
	EventNonCommand
)

// Event records one handled spike.
type Event struct {
	Kind        EventKind
	CommandID   trace.CommandID // lifecycle trace ID assigned at spike start
	SpikeStart  time.Time
	QueryStart  time.Time       // when the Decision Module was asked (EventCommand)
	DecisionAt  time.Time       // when the verdict arrived (EventCommand)
	Verdict     decision.Result // EventCommand only
	Released    bool            // held traffic forwarded to the cloud
	Degraded    bool            // Released chosen by DegradedPolicy, not evidence
	HeldPackets int
}

// HoldDuration returns how long the spike's traffic was held.
func (e Event) HoldDuration() time.Duration {
	switch e.Kind {
	case EventCommand:
		return e.DecisionAt.Sub(e.SpikeStart)
	default:
		return 0
	}
}

// VerificationTime returns the RSSI-query latency (Fig. 7): from the
// moment the spike started being held to the verdict.
func (e Event) VerificationTime() time.Duration {
	return e.DecisionAt.Sub(e.SpikeStart)
}

// Scheduler is the guard's clock: *simtime.Sim in the simulation, a
// wall clock on the wire.
type Scheduler interface {
	Now() time.Time
	// ScheduleTimer runs fn at time at.
	ScheduleTimer(at time.Time, fn func()) simtime.Timer
	// RescheduleTimer moves t (live, cancelled, or already fired) to
	// time at, keeping its callback, and returns the handle to keep.
	RescheduleTimer(t simtime.Timer, at time.Time) simtime.Timer
}

// HoldSink is the transport whose traffic the guard holds: a proxy
// session on the wire, nil in the simulation (where holding is pure
// bookkeeping). The guard releases held bytes only once every episode
// they belong to has a release verdict, in stream order, and drops the
// whole hold on any drop verdict — so a command can never ride out on
// an earlier command's or a response spike's release.
type HoldSink interface {
	// HoldCommand holds traffic from here on for command id: it starts
	// a hold, or extends the active one. It returns the stream offset
	// at which the command's held bytes begin, and whether a new hold
	// began (the previous one, if any, was resolved by the transport).
	HoldCommand(id trace.CommandID) (mark int, started bool)
	// ReleaseTo forwards the held bytes before mark and keeps holding.
	ReleaseTo(mark int) error
	// Release ends the hold, forwarding every held byte.
	Release() error
	// Drop ends the hold, discarding every held byte.
	Drop() int
}

// episode is one spike's traffic-handling state, from the first held
// packet to its release or drop.
type episode struct {
	id          trace.CommandID
	spikeStart  time.Time
	heldPackets int
	command     bool // recognized as a voice command
	dispatched  bool // handed to the decision pipeline
	inHold      bool // its bytes sit in the sink's current hold
	mark        int  // sink stream offset where its held bytes begin
}

// Guard is one speaker's VoiceGuard instance.
type Guard struct {
	clock      Scheduler
	recognizer *recognize.Recognizer
	method     decision.Method

	// Tracer receives the guard's lifecycle spans (nil in New means
	// trace.Default).
	Tracer *trace.Tracer

	// Stage is the trace stage of the guard's own events (spike start,
	// queueing, hold spans); New sets trace.StageGuard.
	Stage string

	// Sink, when set, is the transport the guard holds, releases, and
	// drops traffic on (see HoldSink).
	Sink HoldSink

	// DispatchDelay models per-speaker overhead between recognizing a
	// command and the RSSI query being issued (the Google Home Mini's
	// on-demand flow setup makes its queries slightly slower, matching
	// Fig. 7's ordering).
	DispatchDelay time.Duration

	// Degraded decides held traffic when the Decision Module reports
	// the query path dead (zero value: fail-closed).
	Degraded DegradedPolicy

	speaker     string
	speakerAttr trace.Attr // boxed once: every spike's spans carry it

	// labels and the lv* handles are the guard's dimensional metric
	// identity: SetLabels resolves the labeled children once, so the
	// per-event path updates cached handles instead of re-interning.
	labels     metrics.Labels
	lvHold     *metrics.Histogram
	lvAllow    *metrics.Counter
	lvBlock    *metrics.Counter
	lvDegraded *metrics.Counter

	cur       *episode   // spike currently accumulating packets
	inflight  *episode   // episode whose decision query is running
	queue     []*episode // recognized commands awaiting the in-flight query
	held      []*episode // episodes in the sink's current hold, oldest first
	idleTimer simtime.Timer
	idleFire  func() // reusable idle-timer callback (see armIdleTimer)

	onEvent func(Event)
}

// New returns a guard for one speaker, running on clock: a
// *simtime.Sim in the simulation, a wall-clock scheduler on the wire.
func New(clock Scheduler, rec *recognize.Recognizer, method decision.Method, speaker string) *Guard {
	g := &Guard{
		clock:       clock,
		recognizer:  rec,
		method:      method,
		speaker:     speaker,
		speakerAttr: trace.String("speaker", speaker),
		Tracer:      trace.Default,
		Stage:       trace.StageGuard,
	}
	g.SetLabels(metrics.Labels{})
	return g
}

// SetLabels sets the guard's metric label dimensions (home/tenant,
// fault profile, ...). The Speaker label is filled from the guard's
// speaker model when unset. Labeled metric children are resolved here,
// once, so per-event updates stay on the lock-free zero-alloc path.
func (g *Guard) SetLabels(l metrics.Labels) {
	if l.Speaker == "" {
		l.Speaker = g.speaker
	}
	g.labels = l
	g.lvHold = mHoldVec.With(l)
	allow := l
	allow.Verdict = VerdictAllow
	g.lvAllow = mVerdictsVec.With(allow)
	block := l
	block.Verdict = VerdictBlock
	g.lvBlock = mVerdictsVec.With(block)
	g.lvDegraded = mDegradedVec.With(l)
}

// Labels returns the guard's metric label set.
func (g *Guard) Labels() metrics.Labels { return g.labels }

// OnEvent registers a callback invoked for every completed event. The
// guard keeps no event history of its own: a speaker session may last
// for days, so callers collect what they need here.
func (g *Guard) OnEvent(fn func(Event)) { g.onEvent = fn }

// tracer returns the guard's tracer, defaulting safely.
func (g *Guard) tracer() *trace.Tracer { return trace.Or(g.Tracer) }

// Feed processes one captured packet. Callers must advance the
// simulated clock to the packet's timestamp before feeding it, so
// pending decision callbacks interleave correctly with traffic.
func (g *Guard) Feed(p pcap.Packet) {
	switch g.recognizer.Feed(p) {
	case recognize.ActionHold:
		mSpikes.Inc()
		g.startEpisode(p.Time, 1)
		g.armIdleTimer(p.Time)
	case recognize.ActionNone:
		if g.cur != nil {
			g.cur.heldPackets++
			g.armIdleTimer(p.Time)
		}
	case recognize.ActionCommand:
		mCommands.Inc()
		// The recognizer emits ActionCommand once per spike; if the
		// current episode was already dispatched, this is a new spike
		// recognized on its first packet (GHM-style immediate
		// recognition), possibly while the previous query is still in
		// flight.
		if g.cur == nil || g.cur.dispatched {
			mSpikes.Inc()
			g.startEpisode(p.Time, 0)
		}
		g.cur.heldPackets++
		g.cur.command = true
		g.disarmIdleTimer()
		g.traceClassified(g.cur, p.Time, classifiedCommand)
		g.dispatch(g.cur)
	case recognize.ActionRelease:
		if g.cur != nil {
			g.cur.heldPackets++
			g.traceClassified(g.cur, p.Time, classifiedRelease)
		}
		g.finishNonCommand()
	}
}

// startEpisode opens a new episode: the command ID is assigned here,
// at spike start, and bound to the recognizer so its marker events
// correlate.
func (g *Guard) startEpisode(at time.Time, held int) {
	if prev := g.cur; prev != nil && !prev.command {
		// The recognizer abandoned an unclassified spike for this one
		// (its idle timer was outrun); it would have ended as a
		// non-command, so its bytes no longer need holding.
		g.resolveHold(prev, true)
	}
	id := g.tracer().NextID()
	g.cur = &episode{id: id, spikeStart: at, heldPackets: held}
	g.recognizer.BindCommand(id)
	g.holdEpisode(g.cur)
	g.tracer().Record(trace.Event(id, g.Stage, "spike_start", at, g.speakerAttr))
}

// holdEpisode puts an episode's traffic on hold in the sink.
func (g *Guard) holdEpisode(ep *episode) {
	if g.Sink == nil {
		return
	}
	mark, started := g.Sink.HoldCommand(ep.id)
	if started {
		// The transport resolved the previous hold itself (its hold
		// deadline): those episodes' verdicts no longer move bytes.
		g.detachHeld()
	}
	ep.inHold, ep.mark = true, mark
	g.held = append(g.held, ep)
}

// resolveHold applies one episode's outcome to the sink: a drop
// discards the whole hold; a release forwards held bytes only up to
// the oldest episode still unresolved, ending the hold once none is.
func (g *Guard) resolveHold(ep *episode, released bool) {
	if !ep.inHold {
		return
	}
	if !released {
		g.detachHeld()
		g.Sink.Drop()
		return
	}
	ep.inHold = false
	i := 0
	for g.held[i] != ep {
		i++
	}
	g.held = append(g.held[:i], g.held[i+1:]...)
	// A failed write means the cloud side is gone; the transport
	// tears the session down itself, so there is nothing to undo here.
	switch {
	case len(g.held) == 0:
		_ = g.Sink.Release()
	case i == 0:
		_ = g.Sink.ReleaseTo(g.held[0].mark)
	}
}

// detachHeld forgets the sink's current hold.
func (g *Guard) detachHeld() {
	for _, ep := range g.held {
		ep.inHold = false
	}
	clear(g.held)
	g.held = g.held[:0]
}

// The classify span's action attributes, boxed once: the flight
// recorder retains thousands of spans.
var (
	classifiedCommand = trace.String("action", "command")
	classifiedRelease = trace.String("action", "release")
)

// traceClassified closes the recognition phase of an episode: one span
// from spike start to the classifying packet.
func (g *Guard) traceClassified(ep *episode, at time.Time, action trace.Attr) {
	g.tracer().Record(trace.Span{
		Command: ep.id,
		Stage:   trace.StageRecognize,
		Name:    "classify",
		Start:   ep.spikeStart,
		End:     at,
		Attrs:   []trace.Attr{action, trace.Int("packets", ep.heldPackets)},
	})
}

// armIdleTimer (re)schedules spike finalisation one idle gap after the
// latest packet. The timer is re-armed on every held packet, so the
// re-arm path reuses the live event via Reschedule instead of
// allocating a fresh one — ordering is identical to cancel-and-
// schedule (Reschedule takes a fresh sequence number).
func (g *Guard) armIdleTimer(last time.Time) {
	at := last.Add(g.recognizer.IdleGap)
	if g.idleTimer != nil {
		g.idleTimer = g.clock.RescheduleTimer(g.idleTimer, at)
		return
	}
	if g.idleFire == nil {
		g.idleFire = func() {
			g.idleTimer = nil
			if g.recognizer.EndSpike() == recognize.ActionRelease {
				if g.cur != nil {
					g.traceClassified(g.cur, g.clock.Now(), classifiedRelease)
				}
				g.finishNonCommand()
			}
		}
	}
	g.idleTimer = g.clock.ScheduleTimer(at, g.idleFire)
}

func (g *Guard) disarmIdleTimer() {
	if g.idleTimer != nil {
		g.idleTimer.Cancel()
		g.idleTimer = nil
	}
}

// dispatch hands a recognized command to the Decision Module. If a
// query is already in flight (a second command spike recognized while
// the first verdict is pending), the episode is queued and its query
// starts the moment the in-flight one completes — previously such a
// spike was silently left held with no timer and no pending query.
func (g *Guard) dispatch(ep *episode) {
	if ep.dispatched {
		return
	}
	ep.dispatched = true
	if g.inflight != nil {
		mQueriesQueued.Inc()
		g.queue = append(g.queue, ep)
		g.tracer().Record(trace.Event(ep.id, g.Stage, "query_queued", g.clock.Now(),
			trace.Int("queue_depth", len(g.queue)),
			trace.Int64("behind", int64(g.inflight.id))))
		return
	}
	g.startQuery(ep)
}

// startQuery starts the Decision Module check for one episode after
// the dispatch delay.
func (g *Guard) startQuery(ep *episode) {
	g.inflight = ep
	start := func() {
		queryStart := g.clock.Now()
		g.method.Check(decision.Request{At: queryStart, Speaker: g.speaker, Command: ep.id}, func(r decision.Result) {
			g.inflight = nil
			if g.cur == ep {
				g.cur = nil
			}
			released := r.Legitimate
			if r.PathDead {
				// No evidence arrived — the query path itself failed,
				// so the configured degraded policy decides instead.
				released = g.Degraded == DegradedFailOpen
				mDegraded.Inc()
				g.lvDegraded.Inc()
				g.tracer().Record(trace.Event(ep.id, g.Stage, "degraded_verdict", r.At,
					trace.String("policy", g.Degraded.String()),
					trace.Bool("released", released),
					trace.String("reason", r.Reason)))
			}
			outcome := trace.String(trace.AttrOutcome, trace.OutcomeDrop)
			if released {
				outcome = trace.String(trace.AttrOutcome, trace.OutcomeRelease)
			}
			var attrs []trace.Attr
			if r.Reason == "" { // the live plane's verdicts carry no reason
				attrs = []trace.Attr{outcome}
			} else {
				attrs = []trace.Attr{outcome, trace.String("reason", r.Reason)}
			}
			g.tracer().Record(trace.Span{
				Command: ep.id,
				Stage:   trace.StageDecision,
				Name:    g.method.Name(),
				Start:   queryStart,
				End:     r.At,
				Attrs:   attrs,
			})
			g.resolveHold(ep, released)
			g.record(Event{
				Kind:        EventCommand,
				CommandID:   ep.id,
				SpikeStart:  ep.spikeStart,
				QueryStart:  queryStart,
				DecisionAt:  r.At,
				Verdict:     r,
				Released:    released,
				Degraded:    r.PathDead,
				HeldPackets: ep.heldPackets,
			})
			if len(g.queue) > 0 {
				next := g.queue[0]
				g.queue = append(g.queue[:0], g.queue[1:]...)
				g.startQuery(next)
			}
		})
	}
	if g.DispatchDelay > 0 {
		g.clock.ScheduleTimer(g.clock.Now().Add(g.DispatchDelay), start)
		return
	}
	start()
}

// finishNonCommand completes a held spike that turned out not to be a
// command.
func (g *Guard) finishNonCommand() {
	ep := g.cur
	if ep == nil || ep.command {
		return
	}
	g.cur = nil
	g.resolveHold(ep, true)
	g.record(Event{
		Kind:        EventNonCommand,
		CommandID:   ep.id,
		SpikeStart:  ep.spikeStart,
		Released:    true,
		HeldPackets: ep.heldPackets,
	})
}

func (g *Guard) record(ev Event) {
	end := g.clock.Now()
	held := trace.Int("held_packets", ev.HeldPackets)
	var attrs []trace.Attr
	switch ev.Kind {
	case EventCommand:
		if ev.Released {
			mAllowed.Inc()
			g.lvAllow.Inc()
			attrs = []trace.Attr{g.speakerAttr, held, trace.String(trace.AttrOutcome, trace.OutcomeRelease)}
		} else {
			mBlocked.Inc()
			g.lvBlock.Inc()
			attrs = []trace.Attr{g.speakerAttr, held, trace.String(trace.AttrOutcome, trace.OutcomeDrop)}
		}
		// The hold histograms keep the command ID as the bucket's
		// exemplar, linking a tail bucket to its flight-recorder spans.
		mHoldSeconds.ObserveExemplar(ev.HoldDuration(), uint64(ev.CommandID))
		g.lvHold.ObserveExemplar(ev.HoldDuration(), uint64(ev.CommandID))
		end = ev.DecisionAt
	case EventNonCommand:
		mNonCommands.Inc()
		attrs = []trace.Attr{g.speakerAttr, held, trace.String(trace.AttrOutcome, trace.OutcomeRelease),
			trace.Bool("noncommand", true)}
	}
	g.tracer().Record(trace.Span{
		Command: ev.CommandID,
		Stage:   g.Stage,
		Name:    "hold",
		Start:   ev.SpikeStart,
		End:     end,
		Attrs:   attrs,
	})
	if g.onEvent != nil {
		g.onEvent(ev)
	}
}

// Router dispatches packets to per-speaker guards by the speaker's IP
// address — the paper's multi-speaker deployment identifies the
// speaker in use by its unique IP (§V).
type Router struct {
	guards map[string]*Guard

	// Tracer receives the router's diagnostics (nil uses
	// trace.Default).
	Tracer *trace.Tracer

	// unknownTraced remembers which unknown source IPs already emitted
	// a trace event, so a misconfigured speaker surfaces once per IP
	// instead of flooding the flight recorder per packet.
	unknownTraced map[string]bool
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{guards: make(map[string]*Guard), unknownTraced: make(map[string]bool)}
}

// Add registers a guard for a speaker IP.
func (r *Router) Add(speakerIP string, g *Guard) { r.guards[speakerIP] = g }

// Guard returns the guard for a speaker IP.
func (r *Router) Guard(speakerIP string) (*Guard, bool) {
	g, ok := r.guards[speakerIP]
	return g, ok
}

// SetDegraded overrides the degraded policy for one speaker — the
// per-speaker knob of the deployment-wide fail-open/fail-closed
// choice. Reports whether the speaker IP is registered.
func (r *Router) SetDegraded(speakerIP string, p DegradedPolicy) bool {
	g, ok := r.guards[speakerIP]
	if ok {
		g.Degraded = p
	}
	return ok
}

// SetDegradedAll sets the degraded policy on every registered guard;
// follow with SetDegraded for per-speaker overrides.
func (r *Router) SetDegradedAll(p DegradedPolicy) {
	for _, g := range r.guards {
		g.Degraded = p
	}
}

// Feed routes one packet to the guard of its source speaker, if any.
// Every registered guard's recognizer still sees DNS responses
// addressed to its speaker. Packets from unknown hosts (phones,
// laptops — but also a speaker whose IP was misconfigured) are
// counted and traced once per source IP, so a silently unguarded
// speaker shows up in metrics instead of as invisible false
// negatives.
func (r *Router) Feed(p pcap.Packet) {
	if g, ok := r.guards[p.SrcIP]; ok {
		g.Feed(p)
		return
	}
	// DNS responses flow router→speaker; deliver to the destination's
	// guard so its tracker can learn new cloud addresses.
	if g, ok := r.guards[p.DstIP]; ok {
		g.Feed(p)
		return
	}
	mUnknownSpeaker.Inc()
	if !r.unknownTraced[p.SrcIP] {
		r.unknownTraced[p.SrcIP] = true
		trace.Or(r.Tracer).Record(trace.Event(0, trace.StageGuard, "unknown_speaker", p.Time,
			trace.String("src_ip", p.SrcIP),
			trace.String("dst_ip", p.DstIP)))
	}
}
