package decision

import (
	"fmt"
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
}

var _ Method = (*RSSIMethod)(nil)

// DefaultTimeout is the reply deadline for RSSI queries.
const DefaultTimeout = 5 * time.Second

// Name returns the method name.
func (m *RSSIMethod) Name() string { return "bluetooth-rssi" }

// Check runs the group RSSI query. The verdict completes at the
// earliest moment it is determined: on the first passing reply
// (legitimate), or once every device has replied below threshold or
// the timeout fires (malicious).
func (m *RSSIMethod) Check(req Request, done func(Result)) {
	mRSSIQueries.Inc()
	if len(m.Devices) == 0 {
		done(Result{
			Legitimate: false,
			Reason:     "no registered devices",
			At:         req.At,
		})
		return
	}
	timeout := m.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}

	cfg := make(map[string]DeviceConfig, len(m.Devices))
	ids := make([]string, 0, len(m.Devices))
	for _, d := range m.Devices {
		cfg[d.ID] = d
		ids = append(ids, d.ID)
	}

	var (
		decided bool
		replied = make(map[string]bool, len(ids))
		corrupt int
		finish  = func(r Result) {
			if decided {
				return
			}
			decided = true
			d := r.At.Sub(req.At)
			// The labeled latency series keeps the command ID as the
			// bucket exemplar: a bad p99 bucket links straight to the
			// trace spans of the command that landed in it.
			mLatencyVec.With(m.Labels).ObserveExemplar(d, uint64(req.Command))
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
			done(r)
		}
	)

	tr := trace.Or(m.Tracer)
	timeoutEv := m.Clock.After(timeout, func() {
		mQueryTimeouts.Inc()
		tr.Record(trace.Event(req.Command, trace.StageDecision, "query_timeout", m.Clock.Now(),
			trace.Duration("timeout", timeout),
			trace.Int("replies", len(replied)),
			trace.Int("devices", len(ids))))
		// A timeout with partial replies is the normal "nobody was
		// nearby" outcome; a timeout with zero replies means no device
		// was reachable at all, so the verdict carries no evidence and
		// the guard's degraded policy applies.
		r := Result{
			Legitimate: false,
			Reason:     fmt.Sprintf("query timeout with partial replies (%d/%d)", len(replied), len(ids)),
			At:         m.Clock.Now(),
		}
		if len(replied) == 0 {
			r.Reason = "query timeout: no device reachable"
			r.PathDead = true
		}
		finish(r)
	})

	err := m.Broker.RequestWith(ids, m.Adv, func(r push.Reply) {
		if decided {
			// A reply racing the timeout at the same simulated instant
			// (or arriving after it) must not produce a second verdict
			// or mutate tracker state.
			return
		}
		d, ok := cfg[r.DeviceID]
		if !ok {
			// A reply from a device this query never asked about — a
			// stale or misrouted push — carries no calibrated
			// threshold and must not vote.
			mUnknownReplies.Inc()
			tr.Record(trace.Event(req.Command, trace.StageDecision, "unknown_reply", r.At,
				trace.String("device", r.DeviceID)))
			return
		}
		if replied[r.DeviceID] {
			// At-least-once push delivery can duplicate a reply; the
			// first one already voted. Without this, a duplicate would
			// double-decrement the pending count and fire the "no
			// device near" verdict while a device is still scanning.
			mDupReplies.Inc()
			tr.Record(trace.Event(req.Command, trace.StageDecision, "duplicate_reply", r.At,
				trace.String("device", r.DeviceID)))
			return
		}
		replied[r.DeviceID] = true
		if r.Corrupt {
			// A garbled reading may vote nobody legitimate and must
			// not touch the floor tracker — but the device did answer,
			// so it still counts toward the reply tally.
			corrupt++
			mCorruptReplies.Inc()
			tr.Record(trace.Event(req.Command, trace.StageDecision, "corrupt_reply", r.At,
				trace.String("device", r.DeviceID)))
			if len(replied) == len(ids) {
				timeoutEv.Cancel()
				finish(noPassResult(r.At, len(replied), corrupt))
			}
			return
		}
		pass := r.Reading.RSSI >= d.Threshold
		if pass && d.Tracker != nil && !d.Tracker.SameFloorAsSpeaker() {
			if d.FloorCeiling != 0 && r.Reading.RSSI > d.FloorCeiling {
				// The reading exceeds anything measurable off the
				// speaker's floor: the tracker has drifted; resync.
				mFloorOverrides.Inc()
				tr.Record(trace.Event(req.Command, trace.StageDecision, "floor_override", r.At,
					trace.String("device", r.DeviceID),
					trace.Float("rssi", r.Reading.RSSI),
					trace.Float("floor_ceiling", d.FloorCeiling),
					trace.Int("resync_level", d.Tracker.SpeakerFloor)))
				d.Tracker.SetLevel(d.Tracker.SpeakerFloor)
			} else {
				// Paper §V-B2: a command is always blocked while the
				// owner is believed to be on another floor.
				tr.Record(trace.Event(req.Command, trace.StageDecision, "floor_veto", r.At,
					trace.String("device", r.DeviceID),
					trace.Int("believed_level", d.Tracker.Level()),
					trace.Int("speaker_level", d.Tracker.SpeakerFloor)))
				pass = false
			}
		}
		tr.Record(trace.Event(req.Command, trace.StageDecision, "rssi_reply", r.At,
			trace.String("device", r.DeviceID),
			trace.Float("rssi", r.Reading.RSSI),
			trace.Float("threshold", d.Threshold),
			trace.Bool("pass", pass)))
		if pass {
			timeoutEv.Cancel()
			finish(Result{
				Legitimate: true,
				Reason:     fmt.Sprintf("device %s RSSI %.1f above threshold %.1f", r.DeviceID, r.Reading.RSSI, d.Threshold),
				At:         r.At,
			})
			return
		}
		if len(replied) == len(ids) {
			timeoutEv.Cancel()
			finish(noPassResult(r.At, len(replied), corrupt))
		}
	}, push.RequestOpts{
		Command: req.Command,
		Done: func(out push.Outcome) {
			if decided || out.Accepted > 0 {
				return
			}
			// Every send failed observably (broker outage, drops past
			// the re-push cap): the query path is known-dead, so
			// report it now instead of sitting out the timeout.
			timeoutEv.Cancel()
			at := m.Clock.Now()
			tr.Record(trace.Event(req.Command, trace.StageDecision, "path_dead", at,
				trace.Int("failed_sends", out.Failed),
				trace.Int("devices", out.Requested)))
			finish(Result{
				Legitimate: false,
				Reason:     fmt.Sprintf("push path dead: all %d sends failed", out.Failed),
				At:         at,
				PathDead:   true,
			})
		},
	})
	if err != nil {
		timeoutEv.Cancel()
		finish(Result{
			Legitimate: false,
			Reason:     fmt.Sprintf("push error: %v", err),
			At:         m.Clock.Now(),
		})
	}
}

// noPassResult is the verdict once every queried device has replied
// and none passed.
func noPassResult(at time.Time, replies, corrupt int) Result {
	reason := "no device near the speaker"
	if corrupt > 0 {
		reason = fmt.Sprintf("no device near the speaker (%d/%d replies corrupted)", corrupt, replies)
	}
	return Result{Legitimate: false, Reason: reason, At: at}
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
