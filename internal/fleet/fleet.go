// Package fleet is the fleet engine: one process stepping many
// independent homes.
//
// A home experiment is single-threaded (it owns its simtime clock and
// RNG tree), so a round fans a fixed number of tasks, each stepping its
// share of the tenant list in turn, across the internal/parallel pool.
// Outcomes depend only on each home's own seed, never on worker or
// task count or scheduling order; the fleet invariance tests pin that.
//
// Tenants advance in day-lockstep rounds: round k runs day k of every
// tenant that still has days left. Lockstep keeps peak memory flat (no
// tenant races ahead accumulating trace buffers) and gives a Register
// during round k a well-defined meaning: the tenant joins at the next
// round with its own day 0.
//
// Tenants share only floorplans (homes given the same *floorplan.Plan
// pointer, see scenario.FleetHomeConfig) and the process-global
// trace-mean memo, which is safe for concurrent use.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"voiceguard/internal/metrics"
	"voiceguard/internal/parallel"
)

// Metric names: every (tenant, day) step dispatched, and every round
// that dispatched at least one.
const (
	MetricHomeDays = "fleet_home_days_total"
	MetricRounds   = "fleet_rounds_total"
)

// Home is the unit of work a tenant wraps: a single-goroutine
// simulation that advances one day at a time. scenario.Home satisfies
// it; tests substitute stubs.
type Home interface {
	// Days is the total number of days the home runs.
	Days() int
	// RunDay advances exactly one day. The manager calls days in
	// order, 0..Days()-1, each exactly once, never concurrently.
	RunDay(day int)
}

// Tenant binds a Home to its fleet identity and tracks scheduling
// progress. A Tenant must be registered with at most one Manager.
type Tenant struct {
	id   string
	home Home
	days int
	next int // the next day to run; written only by the task stepping it
}

// NewTenant wraps home as tenant id. Panics on an empty id or nil
// home — both are caller bugs, not runtime conditions.
func NewTenant(id string, home Home) *Tenant {
	if id == "" {
		panic("fleet: tenant needs a non-empty id")
	}
	if home == nil {
		panic("fleet: tenant needs a home")
	}
	return &Tenant{id: id, home: home, days: home.Days()}
}

// step runs the tenant's next day and reports whether a day was run
// (false once the tenant is done).
func (t *Tenant) step() bool {
	if t.next >= t.days {
		return false
	}
	//vglint:allow hotalloc the 0-alloc contract covers dispatch overhead; RunDay executes a whole simulated day, whose allocations are the scenario engine's own budget
	t.home.RunDay(t.next)
	t.next++
	return true
}

// Manager schedules a fleet of tenants in registration order.
type Manager struct {
	tasks int

	mu      sync.Mutex
	ids     map[string]bool
	tenants []*Tenant

	homeDays *metrics.Counter
	rounds   *metrics.Counter
}

// New builds a Manager whose rounds fan out over the given number of
// tasks (values < 1 are clamped to 1), registering its metrics with
// metrics.Default.
func New(tasks int) *Manager { return NewWithRegistry(tasks, metrics.Default) }

// NewWithRegistry is New with an explicit metrics registry, for tests
// that must not pollute the process-global one.
func NewWithRegistry(tasks int, reg *metrics.Registry) *Manager {
	return &Manager{
		tasks:    max(tasks, 1),
		ids:      make(map[string]bool),
		homeDays: reg.Counter(MetricHomeDays),
		rounds:   reg.Counter(MetricRounds),
	}
}

// Register adds a tenant to the fleet. A tenant registered while a
// round is in flight joins at the next round. Registering a duplicate
// ID is an error.
func (m *Manager) Register(t *Tenant) error {
	if t == nil {
		return fmt.Errorf("fleet: register nil tenant")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ids[t.id] {
		return fmt.Errorf("fleet: tenant %q already registered", t.id)
	}
	m.ids[t.id] = true
	m.tenants = append(m.tenants, t)
	return nil
}

// RunRound runs one day-lockstep round: task s, in parallel with the
// others, steps tenants s, s+tasks, s+2·tasks, … of the list by one
// day each. It returns the number of (tenant, day) steps dispatched —
// zero means the fleet is drained. At most one RunRound/RunAll may be
// in flight at a time; Register remains safe concurrently, because a
// round steps only the tenants registered when it began. Hot path at
// fleet scale: dispatch must not allocate per tenant.
func (m *Manager) RunRound() int {
	m.mu.Lock()
	tenants := m.tenants
	m.mu.Unlock()
	var steps atomic.Int64
	parallel.Do(m.tasks, func(s int) {
		n := 0
		for i := s; i < len(tenants); i += m.tasks {
			if tenants[i].step() {
				n++
			}
		}
		steps.Add(int64(n))
	})
	n := int(steps.Load())
	if n > 0 {
		m.rounds.Inc()
		m.homeDays.Add(int64(n))
	}
	return n
}

// RunAll runs rounds until no tenant makes progress: every tenant
// registered before the final round completes all of its days.
func (m *Manager) RunAll() {
	for m.RunRound() > 0 {
	}
}
