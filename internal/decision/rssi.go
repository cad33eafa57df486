package decision

import (
	"fmt"
	"slices"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/metrics"
	"voiceguard/internal/mobility"
	"voiceguard/internal/push"
	"voiceguard/internal/simtime"
	"voiceguard/internal/stats"
	"voiceguard/internal/trace"
)

// Metric names, as package-level constants (the vglint metriclabel
// rule).
const (
	metricRSSIQueries    = "decision_rssi_queries_total"
	metricQueryTimeouts  = "decision_query_timeouts_total"
	metricFloorOverrides = "decision_floor_overrides_total"
	metricFloorTraces    = "decision_floor_traces_total"
	metricUnknownReplies = "decision_unknown_replies_total"
	metricDupReplies     = "decision_duplicate_replies_total"
	metricCorruptReplies = "decision_corrupt_replies_total"

	// MetricLatency is the labeled decision-latency family (request
	// issued → verdict) keyed by home/speaker/profile, with per-bucket
	// command-ID exemplars — the series the SLO objectives and
	// FaultStudy report per label set.
	MetricLatency = "decision_latency_seconds"
	// MetricOutcomes counts verdicts per label set; the Verdict label
	// carries allow/block/path_dead.
	MetricOutcomes = "decision_outcomes"
)

// Verdict label values of the MetricOutcomes family.
const (
	OutcomeAllow    = "allow"
	OutcomeBlock    = "block"
	OutcomePathDead = "path_dead"
)

// Decision Module metrics: query volume, outcome split, timeout rate,
// and the full query round trip (request issued → verdict) on the
// paper's Fig. 6/7 scale. Durations are simulated-clock time.
var (
	mRSSIQueries    = metrics.NewCounter(metricRSSIQueries)
	mQueryTimeouts  = metrics.NewCounter(metricQueryTimeouts)
	mFloorOverrides = metrics.NewCounter(metricFloorOverrides)
	mFloorTraces    = metrics.NewCounter(metricFloorTraces)
	mUnknownReplies = metrics.NewCounter(metricUnknownReplies)
	mDupReplies     = metrics.NewCounter(metricDupReplies)
	mCorruptReplies = metrics.NewCounter(metricCorruptReplies)
	mLatencyVec     = metrics.NewHistogramVec(MetricLatency)
	mOutcomesVec    = metrics.NewCounterVec(MetricOutcomes)
)

// DeviceConfig registers one legitimate user's device with the RSSI
// method.
type DeviceConfig struct {
	ID        string
	Threshold float64       // calibrated RSSI threshold (dB)
	Tracker   *FloorTracker // optional floor-level tracking

	// FloorCeiling, when non-zero, is the highest RSSI the survey
	// walk measured anywhere off the speaker's floor. A reading above
	// it is physically achievable only on the speaker's floor, so it
	// overrides (and resynchronises) a floor tracker that has drifted
	// out of sync — bounding how long one misclassified stair trace
	// can keep blocking a legitimate user.
	FloorCeiling float64
}

// RSSIMethod is the Bluetooth-RSSI legitimacy check (Fig. 5): push a
// measurement request to every registered owner device, and declare
// the command legitimate if at least one device reports an RSSI above
// its threshold while being believed on the speaker's floor.
type RSSIMethod struct {
	Clock   *simtime.Sim
	Broker  *push.Broker
	Adv     ble.Advertiser
	Devices []DeviceConfig

	// Timeout bounds how long the method waits for device replies; a
	// device that does not answer in time counts as "not nearby".
	Timeout time.Duration

	// Tracer receives per-reply and timeout events for each query
	// (nil uses trace.Default).
	Tracer *trace.Tracer

	// Labels dimensions this method's labeled metrics (home/tenant,
	// speaker, fault profile). Set before first use.
	Labels metrics.Labels

	ids  []string     // the IDs of the query being sent (RequestWith keeps none)
	free []*rssiQuery // decided queries, for reuse
	gen  uint64       // the last query's generation
}

var _ Method = (*RSSIMethod)(nil)

// DefaultTimeout is the reply deadline for RSSI queries.
const DefaultTimeout = 5 * time.Second

// Name returns the method name.
func (m *RSSIMethod) Name() string { return "bluetooth-rssi" }

// rssiQuery is one group query's state. The method recycles a query
// once it is decided, so its reply, send-outcome and timeout callbacks
// and its timeout event are made once per rssiQuery, not per query.
// Replies and outcomes can still arrive for a query after it was
// decided, even after its rssiQuery was recycled: the push layer
// echoes the query's generation as their Tag, and one that does not
// match the current generation is ignored.
type rssiQuery struct {
	m    *RSSIMethod
	gen  uint64
	req  Request
	done func(Result)
	tr   *trace.Tracer

	timeout time.Duration
	devices []DeviceConfig // the query's snapshot of m.Devices
	replied []bool         // per device; a repeated ID uses its last slot
	replies int            // distinct devices replied
	decided bool

	timeoutEv *simtime.Event
	onReply   func(push.Reply)
	onSent    func(push.Outcome)
	onTimeout func()
}

// newQuery returns a query in generation m.gen+1, reusing a decided
// one if there is one.
func (m *RSSIMethod) newQuery() *rssiQuery {
	var q *rssiQuery
	if n := len(m.free); n > 0 {
		q = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		q = &rssiQuery{m: m}
		q.onReply, q.onSent, q.onTimeout = q.reply, q.sent, q.expire
	}
	m.gen++
	q.gen = m.gen
	return q
}

// Check runs the group RSSI query. The verdict completes at the
// earliest moment it is determined: on the first passing reply
// (legitimate), or once every device has replied below threshold or
// the timeout fires (malicious).
func (m *RSSIMethod) Check(req Request, done func(Result)) {
	mRSSIQueries.Inc()
	if len(m.Devices) == 0 {
		done(Result{Reason: ReasonNoDevices, At: req.At})
		return
	}
	q := m.newQuery()
	q.req, q.done, q.tr = req, done, trace.Or(m.Tracer)
	q.timeout = m.Timeout
	if q.timeout <= 0 {
		q.timeout = DefaultTimeout
	}
	q.devices = append(q.devices[:0], m.Devices...)
	q.replied = slices.Grow(q.replied[:0], len(q.devices))[:len(q.devices)]
	clear(q.replied)
	q.replies, q.decided = 0, false
	m.ids = m.ids[:0]
	for _, d := range q.devices {
		m.ids = append(m.ids, d.ID)
	}

	at := m.Clock.Now().Add(q.timeout)
	if q.timeoutEv == nil {
		q.timeoutEv = m.Clock.Schedule(at, q.onTimeout)
	} else {
		q.timeoutEv = m.Clock.Reschedule(q.timeoutEv, at)
	}

	err := m.Broker.RequestWith(m.ids, m.Adv, q.onReply, push.RequestOpts{
		Command: req.Command,
		Done:    q.onSent,
		Tag:     q.gen,
	})
	if err != nil {
		// No send went out, so no callback has touched q. The push
		// layer's unknown_device event names the device.
		q.finish(Result{Reason: ReasonPushError, At: m.Clock.Now()})
	}
}

// finish delivers the query's verdict once. The query is recycled
// before done runs, since done may start the next query.
func (q *rssiQuery) finish(r Result) {
	if q.decided {
		return
	}
	q.decided = true
	q.timeoutEv.Cancel()
	m := q.m
	d := r.At.Sub(q.req.At)
	// The labeled latency series keeps the command ID as the
	// bucket exemplar: a bad p99 bucket links straight to the
	// trace spans of the command that landed in it.
	mLatencyVec.With(m.Labels).ObserveExemplar(d, uint64(q.req.Command))
	out := m.Labels
	switch {
	case r.PathDead:
		out.Verdict = OutcomePathDead
	case r.Legitimate:
		out.Verdict = OutcomeAllow
	default:
		out.Verdict = OutcomeBlock
	}
	mOutcomesVec.With(out).Inc()
	done := q.done
	q.done = nil
	m.free = append(m.free, q)
	done(r)
}

// device returns the index of the query's config for id — the last
// one, if Devices repeats it — or -1.
func (q *rssiQuery) device(id string) int {
	for i := len(q.devices) - 1; i >= 0; i-- {
		if q.devices[i].ID == id {
			return i
		}
	}
	return -1
}

// expire is the timeout: whoever has not replied counts as not near.
func (q *rssiQuery) expire() {
	mQueryTimeouts.Inc()
	now := q.m.Clock.Now()
	q.tr.Record(trace.Event(q.req.Command, trace.StageDecision, "query_timeout", now,
		trace.Duration("timeout", q.timeout),
		trace.Int("replies", q.replies),
		trace.Int("devices", len(q.devices))))
	// A timeout with partial replies is the normal "nobody was
	// nearby" outcome; a timeout with zero replies means no device
	// was reachable at all, so the verdict carries no evidence and
	// the guard's degraded policy applies.
	if q.replies == 0 {
		q.finish(Result{Reason: ReasonNoReply, At: now, PathDead: true})
		return
	}
	q.finish(Result{Reason: ReasonPartialTimeout, At: now})
}

// reply counts one device's reply toward the verdict.
func (q *rssiQuery) reply(r push.Reply) {
	if r.Tag != q.gen || q.decided {
		// A reply racing the timeout at the same simulated instant
		// (or arriving after it, even into a later query) must not
		// produce a second verdict or mutate tracker state.
		return
	}
	cmd, tr := q.req.Command, q.tr
	i := q.device(r.DeviceID)
	if i < 0 {
		// A reply from a device this query never asked about — a
		// stale or misrouted push — carries no calibrated
		// threshold and must not vote.
		mUnknownReplies.Inc()
		tr.Record(trace.Event(cmd, trace.StageDecision, "unknown_reply", r.At,
			trace.String("device", r.DeviceID)))
		return
	}
	if q.replied[i] {
		// At-least-once push delivery can duplicate a reply; the
		// first one already voted. Without this, a duplicate would
		// double-decrement the pending count and fire the "no
		// device near" verdict while a device is still scanning.
		mDupReplies.Inc()
		tr.Record(trace.Event(cmd, trace.StageDecision, "duplicate_reply", r.At,
			trace.String("device", r.DeviceID)))
		return
	}
	q.replied[i] = true
	q.replies++
	if r.Corrupt {
		// A garbled reading may vote nobody legitimate and must
		// not touch the floor tracker — but the device did answer,
		// so it still counts toward the reply tally.
		mCorruptReplies.Inc()
		tr.Record(trace.Event(cmd, trace.StageDecision, "corrupt_reply", r.At,
			trace.String("device", r.DeviceID)))
		if q.replies == len(q.devices) {
			q.finish(Result{Reason: ReasonNoneNear, At: r.At})
		}
		return
	}
	d := &q.devices[i]
	pass := r.Reading.RSSI >= d.Threshold
	if pass && d.Tracker != nil && !d.Tracker.SameFloorAsSpeaker() {
		if d.FloorCeiling != 0 && r.Reading.RSSI > d.FloorCeiling {
			// The reading exceeds anything measurable off the
			// speaker's floor: the tracker has drifted; resync.
			mFloorOverrides.Inc()
			tr.Record(trace.Event(cmd, trace.StageDecision, "floor_override", r.At,
				trace.String("device", r.DeviceID),
				trace.Float("rssi", r.Reading.RSSI),
				trace.Float("floor_ceiling", d.FloorCeiling),
				trace.Int("resync_level", d.Tracker.SpeakerFloor)))
			d.Tracker.SetLevel(d.Tracker.SpeakerFloor)
		} else {
			// Paper §V-B2: a command is always blocked while the
			// owner is believed to be on another floor.
			tr.Record(trace.Event(cmd, trace.StageDecision, "floor_veto", r.At,
				trace.String("device", r.DeviceID),
				trace.Int("believed_level", d.Tracker.Level()),
				trace.Int("speaker_level", d.Tracker.SpeakerFloor)))
			pass = false
		}
	}
	tr.Record(trace.Event(cmd, trace.StageDecision, "rssi_reply", r.At,
		trace.String("device", r.DeviceID),
		trace.Float("rssi", r.Reading.RSSI),
		trace.Float("threshold", d.Threshold),
		trace.Bool("pass", pass)))
	if pass {
		q.finish(Result{Legitimate: true, Reason: ReasonPassed, At: r.At})
		return
	}
	if q.replies == len(q.devices) {
		q.finish(Result{Reason: ReasonNoneNear, At: r.At})
	}
}

// sent handles the query's send-phase outcome.
func (q *rssiQuery) sent(out push.Outcome) {
	if out.Tag != q.gen || q.decided || out.Accepted > 0 {
		return
	}
	// Every send failed observably (broker outage, drops past
	// the re-push cap): the query path is known-dead, so
	// report it now instead of sitting out the timeout.
	at := q.m.Clock.Now()
	q.tr.Record(trace.Event(q.req.Command, trace.StageDecision, "path_dead", at,
		trace.Int("failed_sends", out.Failed),
		trace.Int("devices", out.Requested)))
	q.finish(Result{Reason: ReasonPathDead, At: at, PathDead: true})
}

// CalibrationInterval is the walk-the-room app's sampling period.
const CalibrationInterval = 500 * time.Millisecond

// CalibrateThreshold reproduces the paper's threshold app: the user
// walks the given path (e.g. along the speaker-room walls) while the
// app samples the speaker's RSSI every 0.5 s; the threshold is the
// minimum measured value.
func CalibrateThreshold(sc *ble.Scanner, adv ble.Advertiser, path *mobility.Path) (float64, error) {
	n := int(path.Duration()/CalibrationInterval) + 1
	if n < 2 {
		return 0, fmt.Errorf("decision: calibration walk too short (%v)", path.Duration())
	}
	means := traceMeanVector(sc, adv, path, 0, CalibrationInterval, n)
	values := make([]float64, n)
	sc.QuickFromMeans(means, values)
	return stats.Min(values), nil
}
