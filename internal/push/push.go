// Package push emulates the Firebase Cloud Messaging path the
// Decision Module uses to query the owner's devices (Fig. 5, steps
// 4-7): a push notification wakes the phone's background app, the app
// scans the speaker's Bluetooth RSSI, and the result returns to the
// guard. Each leg contributes latency; together they produce the
// Fig. 7 delay distribution.
//
// The channel is not assumed healthy: an injectable faults.Plan can
// drop sends, take the broker down, hold devices offline, delay
// deliveries, and duplicate or corrupt replies. Observable send
// failures (drops, broker outages) are retried with exponential
// backoff up to a re-push cap; unobservable ones (a push accepted for
// an offline device) black-hole exactly like real FCM, leaving the
// Decision Module's timeout as the only signal.
package push

import (
	"fmt"
	"sync"
	"time"

	"voiceguard/internal/ble"
	"voiceguard/internal/faults"
	"voiceguard/internal/floorplan"
	"voiceguard/internal/metrics"
	"voiceguard/internal/rng"
	"voiceguard/internal/simtime"
	"voiceguard/internal/trace"
)

// Metric names, as package-level constants (the vglint metriclabel
// rule).
const (
	metricPushes       = "push_requests_total"
	metricPushOffline  = "push_offline_devices_total"
	metricPushRetries  = "push_retries_total"
	metricPushFailures = "push_send_failures_total"
	metricPushStale    = "push_stale_replies_total"
	metricPushDupes    = "push_duplicate_replies_total"
	metricPushCorrupt  = "push_corrupt_replies_total"

	// MetricLatency is the labeled push round-trip family keyed by
	// home/speaker/profile, with per-bucket command-ID exemplars.
	MetricLatency = "push_latency_seconds"
)

// Push-channel metrics: per-device push volume, the full
// push→scan→reply round trip on the simulated clock (Fig. 7's
// delay-decomposition scale), and the failure-path counters the
// fault-injection layer exercises.
var (
	mPushes       = metrics.NewCounter(metricPushes)
	mPushOffline  = metrics.NewCounter(metricPushOffline)
	mPushRetries  = metrics.NewCounter(metricPushRetries)
	mPushFailures = metrics.NewCounter(metricPushFailures)
	mPushStale    = metrics.NewCounter(metricPushStale)
	mPushDupes    = metrics.NewCounter(metricPushDupes)
	mPushCorrupt  = metrics.NewCounter(metricPushCorrupt)
	mLatencyVec   = metrics.NewHistogramVec(MetricLatency)
)

// Latency model parameters (seconds). Push delivery is log-normal
// with a long tail, clamped to keep the simulation inside observed
// FCM behaviour; app wake-up and the reply uplink are uniform.
const (
	pushMu      = -0.8 // ln(0.45)
	pushSigma   = 0.4
	pushMinSec  = 0.15
	pushMaxSec  = 2.2
	wakeMinSec  = 0.08
	wakeMaxSec  = 0.30
	replyMinSec = 0.04
	replyMaxSec = 0.12
)

// Retry policy defaults: an observably failed send (drop, broker
// outage) is re-pushed after RetryBase << attempt, at most MaxRetries
// times, before the target counts as unreachable.
const (
	DefaultMaxRetries = 3
	DefaultRetryBase  = 400 * time.Millisecond
)

// Device is a registered owner device: the scanner doing the
// measuring and a callback reporting where the device currently is.
type Device struct {
	ID       string
	Scanner  *ble.Scanner
	Position func() floorplan.Position

	// Offline marks the device unreachable (powered off, out of the
	// house, airplane mode): pushes to it are accepted by FCM but no
	// reply ever arrives, exercising the Decision Module's timeout
	// path.
	Offline bool
}

// Reply is a completed RSSI measurement from one device.
type Reply struct {
	DeviceID string
	Reading  ble.Reading
	At       time.Time // simulated arrival time at the guard

	// Corrupt marks a reply whose integrity check failed in transit;
	// the reading must not be trusted to vote a command legitimate.
	Corrupt bool

	// Tag is the RequestOpts.Tag of the request this reply answers.
	Tag uint64
}

// RequestOpts carries the optional per-query parameters of a group
// push.
type RequestOpts struct {
	// Command tags the query's trace events with the episode it
	// serves (zero for ambient queries).
	Command trace.CommandID

	// Done, when non-nil, is invoked exactly once — at the simulated
	// instant the last target's send resolves (accepted by the push
	// service, or failed after the re-push cap) — with the group
	// outcome. Replies may still arrive after Done: acceptance is a
	// send-time fact, delivery is not.
	Done func(Outcome)

	// Tag is echoed in every Reply and in the Outcome, so a caller
	// that passes the same callbacks to many requests can tell which
	// request a late reply or outcome belongs to.
	Tag uint64
}

// Outcome is the send-phase result of one group push.
type Outcome struct {
	Requested int    // devices targeted
	Accepted  int    // sends the push service acknowledged (including offline black holes)
	Failed    int    // sends that exhausted the re-push cap
	Tag       uint64 // the request's RequestOpts.Tag
}

// Broker routes measurement requests to registered devices over the
// simulated push channel. All methods are safe for concurrent use;
// internally the broker serialises its device table, rng stream, and
// event scheduling under one mutex, and never invokes caller
// callbacks while holding it.
type Broker struct {
	clock *simtime.Sim

	mu         sync.Mutex
	src        *rng.Source
	devices    map[string]*Device
	plan       *faults.Plan
	tracer     *trace.Tracer
	maxRetries int
	retryBase  time.Duration

	// lvRoundTrip is the resolved labeled round-trip child, unlabeled
	// until SetLabels re-resolves it; delivery-path updates stay
	// allocation-free.
	lvRoundTrip *metrics.Histogram
}

// NewBroker returns a broker on the simulated clock with the default
// retry policy and a clean (fault-free) channel.
func NewBroker(clock *simtime.Sim, src *rng.Source) *Broker {
	return &Broker{
		clock:       clock,
		src:         src,
		devices:     make(map[string]*Device),
		maxRetries:  DefaultMaxRetries,
		retryBase:   DefaultRetryBase,
		lvRoundTrip: mLatencyVec.With(metrics.Labels{}),
	}
}

// SetLabels sets the broker's metric label dimensions (home/tenant,
// speaker, fault profile), resolving the labeled round-trip child
// once so delivery-path updates stay on the zero-alloc path.
func (b *Broker) SetLabels(l metrics.Labels) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lvRoundTrip = mLatencyVec.With(l)
}

// SetFaults installs the fault plan for subsequent sends. A nil plan
// restores the clean channel.
func (b *Broker) SetFaults(p *faults.Plan) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.plan = p
}

// SetRetry configures the re-push policy: at most maxRetries
// re-sends per target, the i-th delayed by base << i. maxRetries 0
// disables retries; base <= 0 keeps the default.
func (b *Broker) SetRetry(maxRetries int, base time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if maxRetries < 0 {
		maxRetries = 0
	}
	if base <= 0 {
		base = DefaultRetryBase
	}
	b.maxRetries = maxRetries
	b.retryBase = base
}

// SetTracer directs the broker's push-stage events to t (nil uses
// trace.Default).
func (b *Broker) SetTracer(t *trace.Tracer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tracer = t
}

// Register adds a device. Registering an existing ID replaces it —
// VoiceGuard's device list is owner-managed (§IV-C) — and any replies
// still in flight for the replaced registration are dropped as stale
// at delivery time.
func (b *Broker) Register(d *Device) error {
	if d == nil || d.ID == "" {
		return fmt.Errorf("push: device must have an ID")
	}
	if d.Scanner == nil || d.Position == nil {
		return fmt.Errorf("push: device %q needs a scanner and a position callback", d.ID)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.devices[d.ID] = d
	return nil
}

// Unregister removes a device. In-flight pushes to it are abandoned:
// their replies are dropped at delivery time, so a removed device can
// never vote on a verdict issued while it was being removed.
func (b *Broker) Unregister(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.devices, id)
}

// Devices returns the registered device IDs.
func (b *Broker) Devices() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.devices))
	for id := range b.devices {
		out = append(out, id)
	}
	return out
}

// RequestRSSI pushes a measurement request to each named device
// simultaneously (the multi-user group push of §IV-C). Each device's
// reply is delivered via the callback at its own simulated arrival
// time. Unknown device IDs are reported as an error before any push
// is sent.
func (b *Broker) RequestRSSI(ids []string, adv ble.Advertiser, deliver func(Reply)) error {
	return b.RequestWith(ids, adv, deliver, RequestOpts{})
}

// group is one group push: what every send, wake and reply of the
// request shares, and its send-phase resolution, which is tracked
// under the broker mutex.
type group struct {
	adv      ble.Advertiser
	deliver  func(Reply)
	cmd      trace.CommandID
	reqStart time.Time
	tag      uint64

	outcome   Outcome
	remaining int
	done      func(Outcome)
}

// resolveLocked records one target's send resolution and, once the
// last target resolves, returns the completion callback to invoke
// after the broker mutex is released (nil otherwise). Callbacks must
// never run under b.mu: a Done handler typically re-enters the guard,
// which may start the next queued query and re-lock the broker.
func (g *group) resolveLocked(accepted bool) func() {
	if accepted {
		g.outcome.Accepted++
	} else {
		g.outcome.Failed++
	}
	g.remaining--
	if g.remaining > 0 || g.done == nil {
		return nil
	}
	done, out := g.done, g.outcome
	return func() { done(out) }
}

// RequestWith is RequestRSSI with per-query options: a command ID for
// trace events and a send-phase completion callback. See RequestOpts.
func (b *Broker) RequestWith(ids []string, adv ble.Advertiser, deliver func(Reply), opts RequestOpts) error {
	b.mu.Lock()
	targets := make([]*Device, 0, len(ids))
	for _, id := range ids {
		d, ok := b.devices[id]
		if !ok {
			b.mu.Unlock()
			return fmt.Errorf("push: unknown device %q", id)
		}
		targets = append(targets, d)
	}
	now := b.clock.Now()
	g := &group{
		adv: adv, deliver: deliver, cmd: opts.Command, reqStart: now, tag: opts.Tag,
		remaining: len(targets), done: opts.Done,
		outcome: Outcome{Requested: len(targets), Tag: opts.Tag},
	}
	var after []func()
	for _, d := range targets {
		if fn := b.sendLocked(g, d, 0); fn != nil {
			after = append(after, fn)
		}
	}
	if len(targets) == 0 && opts.Done != nil {
		done, out := opts.Done, g.outcome
		after = append(after, func() { done(out) })
	}
	b.mu.Unlock()
	for _, fn := range after {
		fn()
	}
	return nil
}

// sendLocked attempts one push to d (attempt 0 is the original send).
// An observable failure — broker outage or a dropped send — schedules
// a backoff retry until the re-push cap; acceptance either black-holes
// (offline device) or schedules the wake→scan→reply chain. Returns
// the group-completion callback to run after unlocking, or nil.
func (b *Broker) sendLocked(g *group, d *Device, attempt int) func() {
	now, cmd := b.clock.Now(), g.cmd
	tr := trace.Or(b.tracer)
	if b.plan.BrokerDown() || b.plan.DropPush() {
		if attempt >= b.maxRetries {
			mPushFailures.Inc()
			tr.Record(trace.Event(cmd, trace.StagePush, "push_failed", now,
				trace.String("device", d.ID),
				trace.Int("attempts", attempt+1)))
			return g.resolveLocked(false)
		}
		backoff := b.retryBase << attempt
		mPushRetries.Inc()
		tr.Record(trace.Event(cmd, trace.StagePush, "push_retry", now,
			trace.String("device", d.ID),
			trace.Int("attempt", attempt+1),
			trace.Duration("backoff", backoff)))
		b.clock.Schedule(now.Add(backoff), func() {
			b.mu.Lock()
			var fn func()
			if cur, ok := b.devices[d.ID]; !ok || cur != d {
				// The device was unregistered (or replaced) while the
				// retry waited: abandon the re-push.
				fn = g.resolveLocked(false)
			} else {
				fn = b.sendLocked(g, d, attempt+1)
			}
			b.mu.Unlock()
			if fn != nil {
				fn()
			}
		})
		return nil
	}
	// The push service acknowledged the send.
	mPushes.Inc()
	if d.Offline || b.plan.DeviceOffline() {
		// Accepted but never delivered: FCM cannot tell the guard the
		// device is unreachable, so this is an unobservable black hole.
		mPushOffline.Inc()
		return g.resolveLocked(true)
	}
	wakeAt := now.Add(b.pushLatency()).Add(b.plan.ExtraDelay()).Add(b.uniform(wakeMinSec, wakeMaxSec))
	b.clock.Schedule(wakeAt, func() { b.wakeAndScan(g, d) })
	return g.resolveLocked(true)
}

// wakeAndScan runs at the device's wake instant: re-checks the
// registration, measures, and schedules the reply uplink (twice under
// a duplicate fault).
func (b *Broker) wakeAndScan(g *group, d *Device) {
	b.mu.Lock()
	if cur, ok := b.devices[d.ID]; !ok || cur != d {
		mPushStale.Inc()
		tr := trace.Or(b.tracer)
		b.mu.Unlock()
		tr.Record(trace.Event(g.cmd, trace.StagePush, "stale_reply", b.clock.Now(),
			trace.String("device", d.ID)))
		return
	}
	reading := d.Scanner.Measure(g.adv, d.Position())
	arriveAt := b.clock.Now().Add(reading.Duration).Add(b.uniform(replyMinSec, replyMaxSec))
	corrupt := b.plan.CorruptReply()
	deliveries := 1
	if b.plan.DuplicateReply() {
		deliveries = 2
	}
	for i := 0; i < deliveries; i++ {
		dup := i > 0
		b.clock.Schedule(arriveAt, func() {
			b.deliverReply(g, d, reading, arriveAt, corrupt, dup)
		})
	}
	b.mu.Unlock()
}

// deliverReply hands one reply to the caller — unless the sending
// registration is no longer current, in which case the reply is stale
// and must be dropped: a device removed (or replaced) mid-flight may
// not vote on the verdict.
func (b *Broker) deliverReply(g *group, d *Device, reading ble.Reading, at time.Time, corrupt, dup bool) {
	b.mu.Lock()
	cur, ok := b.devices[d.ID]
	stale := !ok || cur != d
	tr := trace.Or(b.tracer)
	if stale {
		mPushStale.Inc()
	} else {
		b.lvRoundTrip.ObserveExemplar(at.Sub(g.reqStart), uint64(g.cmd))
		if dup {
			mPushDupes.Inc()
		}
		if corrupt {
			mPushCorrupt.Inc()
		}
	}
	b.mu.Unlock()
	if stale {
		tr.Record(trace.Event(g.cmd, trace.StagePush, "stale_reply", at,
			trace.String("device", d.ID)))
		return
	}
	g.deliver(Reply{DeviceID: d.ID, Reading: reading, At: at, Corrupt: corrupt, Tag: g.tag})
}

// pushLatency draws one FCM delivery latency. Callers hold b.mu.
func (b *Broker) pushLatency() time.Duration {
	sec := b.src.LogNormal(pushMu, pushSigma)
	if sec < pushMinSec {
		sec = pushMinSec
	}
	if sec > pushMaxSec {
		sec = pushMaxSec
	}
	return time.Duration(sec * float64(time.Second))
}

// uniform draws a uniform duration in seconds. Callers hold b.mu.
func (b *Broker) uniform(lo, hi float64) time.Duration {
	return time.Duration(b.src.Uniform(lo, hi) * float64(time.Second))
}
