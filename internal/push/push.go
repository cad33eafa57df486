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

// Retry policy: an observably failed send (drop, broker outage) is
// re-pushed after DefaultRetryBase << attempt, at most
// DefaultMaxRetries times, before the target counts as unreachable.
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

	mu      sync.Mutex
	src     *rng.Source
	devices map[string]*Device
	plan    *faults.Plan
	targets []*Device // the request being sent; read only under mu

	// lvRoundTrip is the resolved labeled round-trip child, unlabeled
	// until SetLabels re-resolves it; delivery-path updates stay
	// allocation-free.
	lvRoundTrip *metrics.Histogram
}

// NewBroker returns a broker on the simulated clock with a clean
// (fault-free) channel.
func NewBroker(clock *simtime.Sim, src *rng.Source) *Broker {
	return &Broker{
		clock:       clock,
		src:         src,
		devices:     make(map[string]*Device),
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

// Register adds a device. An ID is registered once: the owner's
// device list is fixed for the broker's life, so every reply comes
// from the registration its push was sent to.
func (b *Broker) Register(d *Device) error {
	if d == nil || d.ID == "" {
		return fmt.Errorf("push: device must have an ID")
	}
	if d.Scanner == nil || d.Position == nil {
		return fmt.Errorf("push: device %q needs a scanner and a position callback", d.ID)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.devices[d.ID]; ok {
		return fmt.Errorf("push: device %q is already registered", d.ID)
	}
	b.devices[d.ID] = d
	return nil
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

// resolveLocked records one target's send resolution. Once the last
// target resolves it returns the completion callback and its outcome,
// to invoke after the broker mutex is released (nil otherwise).
// Callbacks must never run under b.mu: a Done handler typically
// re-enters the guard, which may start the next queued query and
// re-lock the broker.
func (g *group) resolveLocked(accepted bool) (func(Outcome), Outcome) {
	if accepted {
		g.outcome.Accepted++
	} else {
		g.outcome.Failed++
	}
	g.remaining--
	if g.remaining > 0 {
		return nil, Outcome{}
	}
	return g.done, g.outcome
}

// unknownDeviceError is RequestWith's error for an ID no device is
// registered under. It is formatted only when read, so a refused
// request allocates no message.
type unknownDeviceError string

func (e unknownDeviceError) Error() string {
	return fmt.Sprintf("push: unknown device %q", string(e))
}

// RequestWith pushes a measurement request to each named device
// simultaneously (the multi-user group push of §IV-C). Each device's
// reply is delivered via deliver at its own simulated arrival time.
// Unknown device IDs are reported as an error before any push is
// sent. See RequestOpts for the per-query options.
func (b *Broker) RequestWith(ids []string, adv ble.Advertiser, deliver func(Reply), opts RequestOpts) error {
	b.mu.Lock()
	b.targets = b.targets[:0]
	for _, id := range ids {
		d, ok := b.devices[id]
		if !ok {
			trace.Default.Record(trace.Event(opts.Command, trace.StagePush, "unknown_device", b.clock.Now(),
				trace.String("device", id)))
			b.mu.Unlock()
			return unknownDeviceError(id)
		}
		b.targets = append(b.targets, d)
	}
	g := &group{
		adv: adv, deliver: deliver, cmd: opts.Command, reqStart: b.clock.Now(), tag: opts.Tag,
		remaining: len(b.targets), done: opts.Done,
		outcome: Outcome{Requested: len(b.targets), Tag: opts.Tag},
	}
	// A request completes once: with no targets at once, otherwise
	// when the send that resolves last returns its callback.
	var (
		done func(Outcome)
		out  Outcome
	)
	if len(b.targets) == 0 {
		done, out = g.done, g.outcome
	}
	for _, d := range b.targets {
		if fn, o := b.sendLocked(g, d, 0); fn != nil {
			done, out = fn, o
		}
	}
	b.mu.Unlock()
	if done != nil {
		done(out)
	}
	return nil
}

// sendLocked attempts one push to d (attempt 0 is the original send).
// An observable failure — broker outage or a dropped send — schedules
// a backoff retry until the re-push cap; acceptance either black-holes
// (offline device) or schedules the wake→scan→reply chain. Returns
// the group's completion callback and outcome to run after unlocking,
// or nil.
func (b *Broker) sendLocked(g *group, d *Device, attempt int) (func(Outcome), Outcome) {
	now, cmd := b.clock.Now(), g.cmd
	if b.plan.BrokerDown() || b.plan.DropPush() {
		if attempt >= DefaultMaxRetries {
			mPushFailures.Inc()
			trace.Default.Record(trace.Event(cmd, trace.StagePush, "push_failed", now,
				trace.String("device", d.ID),
				trace.Int("attempts", attempt+1)))
			return g.resolveLocked(false)
		}
		backoff := DefaultRetryBase << attempt
		mPushRetries.Inc()
		trace.Default.Record(trace.Event(cmd, trace.StagePush, "push_retry", now,
			trace.String("device", d.ID),
			trace.Int("attempt", attempt+1),
			trace.Duration("backoff", backoff)))
		b.clock.Schedule(now.Add(backoff), func() {
			b.mu.Lock()
			done, out := b.sendLocked(g, d, attempt+1)
			b.mu.Unlock()
			if done != nil {
				done(out)
			}
		})
		return nil, Outcome{}
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

// wakeAndScan runs at the device's wake instant: measures, and
// schedules the reply uplink (twice under a duplicate fault).
func (b *Broker) wakeAndScan(g *group, d *Device) {
	b.mu.Lock()
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

// deliverReply records one reply's round trip and hands it to the
// caller.
func (b *Broker) deliverReply(g *group, d *Device, reading ble.Reading, at time.Time, corrupt, dup bool) {
	b.mu.Lock()
	b.lvRoundTrip.ObserveExemplar(at.Sub(g.reqStart), uint64(g.cmd))
	b.mu.Unlock()
	if dup {
		mPushDupes.Inc()
	}
	if corrupt {
		mPushCorrupt.Inc()
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
