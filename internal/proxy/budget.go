package proxy

import (
	"sync"
	"sync/atomic"

	"voiceguard/internal/metrics"
)

// Budget metric names, as package-level constants (the vglint
// metriclabel rule).
const (
	// MetricHoldBudgetUsed is the bytes currently charged against the
	// global hold budget by the sessions' hold queues; exported so SLO
	// ceilings can reference it.
	MetricHoldBudgetUsed = "proxy_hold_budget_used_bytes"
	// MetricHoldBudgetWaits counts read-pump stalls caused by an
	// exhausted global hold budget — the backpressure observable: a
	// non-zero rate means held traffic is pushing the gateway against
	// its memory ceiling and speakers are being flow-controlled.
	MetricHoldBudgetWaits = "proxy_hold_budget_waits_total"
)

var (
	mHoldBudgetUsed  = metrics.NewGauge(MetricHoldBudgetUsed)
	mHoldBudgetWaits = metrics.NewCounter(MetricHoldBudgetWaits)
)

// HoldBudget bounds the total bytes held across every session that
// shares it — the gateway-wide memory ceiling WithMaxHoldBytes alone
// cannot provide: a per-session cap of 4 MiB still lets 10k wedged
// holds queue 40 GiB. One budget is typically shared by every session
// of a gateway process.
//
// TCP sessions that cannot reserve budget stall their read pump until
// bytes are credited back (a verdict, a hold deadline, or a session
// teardown elsewhere frees them). The stalled pump stops draining the
// kernel socket buffer, the speaker's TCP window closes, and the
// speaker is flow-controlled at the transport layer — backpressure
// instead of OOM.
type HoldBudget struct {
	max int64

	waits atomic.Int64

	mu     sync.Mutex
	used   int64
	change chan struct{}
}

// NewHoldBudget builds a budget of max bytes. max <= 0 returns nil,
// which every consumer treats as "unlimited".
func NewHoldBudget(max int64) *HoldBudget {
	if max <= 0 {
		return nil
	}
	return &HoldBudget{max: max, change: make(chan struct{})}
}

// Max returns the configured ceiling in bytes.
func (b *HoldBudget) Max() int64 { return b.max }

// Used returns the bytes currently reserved.
func (b *HoldBudget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Waits returns how many times a reservation had to stall for budget
// — the backpressure counter, scoped to this budget instance.
func (b *HoldBudget) Waits() int64 { return b.waits.Load() }

// tryReserve charges n bytes against the budget if they fit. A chunk
// larger than the whole budget is admitted alone when the budget is
// empty, so a budget smaller than one read buffer cannot wedge a pump
// forever.
func (b *HoldBudget) tryReserve(n int) bool {
	nn := int64(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+nn > b.max && b.used > 0 {
		return false
	}
	b.used += nn
	mHoldBudgetUsed.Set(b.used)
	return true
}

// credit returns n bytes to the budget and wakes every stalled
// reservation so it can retry.
func (b *HoldBudget) credit(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.used -= int64(n)
	if b.used < 0 {
		b.used = 0
	}
	mHoldBudgetUsed.Set(b.used)
	close(b.change)
	b.change = make(chan struct{})
	b.mu.Unlock()
}

// changed returns a channel closed at the next credit; callers must
// not hold any session lock while waiting on it.
func (b *HoldBudget) changed() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.change
}

// noteWait records one backpressure stall.
func (b *HoldBudget) noteWait() {
	b.waits.Add(1)
	mHoldBudgetWaits.Inc()
}
