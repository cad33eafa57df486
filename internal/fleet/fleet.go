// Package fleet is the multi-tenant engine: one process scheduling
// thousands of independent homes.
//
// A single home experiment is strictly single-threaded (the scenario
// simulation owns its simtime clock and RNG tree), so the fleet's
// concurrency model is homes-as-tasks: every tenant is owned by
// exactly one shard, shards dispatch their tenants sequentially, and
// shards fan out across the internal/parallel worker pool. Outcomes
// depend only on each home's own seed — never on worker count, shard
// count, or scheduling order — which is what the fleet invariance
// tests in internal/scenario pin.
//
// Tenants advance in day-lockstep rounds: round k runs day k of every
// tenant that still has days left. Lockstep keeps peak memory flat
// (no tenant races ahead accumulating trace buffers for days the
// others have not reached) and gives mid-run Register a well-defined
// meaning — a tenant registered during round k joins at the next
// round with its own day 0.
//
// What tenants share is exactly the immutable state: floorplans and
// the process-global mobility path and trace-mean memos. Callers opt
// into plan sharing by giving homes the same *floorplan.Plan pointer
// (see scenario.FleetHomeConfig); the fleet engine itself never
// copies or duplicates per-home state.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"voiceguard/internal/metrics"
	"voiceguard/internal/parallel"
)

// Metric names. fleet_tenants is the current registered-tenant count;
// fleet_home_days_total counts every (tenant, day) step the manager
// has dispatched.
const (
	MetricTenants      = "fleet_tenants"
	MetricHomeDays     = "fleet_home_days_total"
	MetricRounds       = "fleet_rounds_total"
	MetricRegistered   = "fleet_tenants_registered_total"
	MetricUnregistered = "fleet_tenants_unregistered_total"
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
// progress. A Tenant must be registered with at most one Manager at a
// time; its Home is only ever driven by the shard that owns the
// tenant's ID.
type Tenant struct {
	id   string
	home Home
	days int
	next atomic.Int64
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

// ID returns the tenant's fleet-wide identity.
func (t *Tenant) ID() string { return t.id }

// Home returns the wrapped home.
func (t *Tenant) Home() Home { return t.home }

// Days returns the total days the tenant runs.
func (t *Tenant) Days() int { return t.days }

// DaysRun reports how many days the manager has dispatched so far.
func (t *Tenant) DaysRun() int { return int(t.next.Load()) }

// Done reports whether every day has been run.
func (t *Tenant) Done() bool { return t.DaysRun() >= t.days }

// step runs the tenant's next day and reports whether a day was run
// (false once the tenant is done). Only the owning shard calls step,
// so next needs no CAS — the atomic is for concurrent DaysRun readers.
func (t *Tenant) step() bool {
	day := int(t.next.Load())
	if day >= t.days {
		return false
	}
	//vglint:allow hotalloc the 0-alloc contract covers dispatch overhead; RunDay executes a whole simulated day, whose allocations are the scenario engine's own budget
	t.home.RunDay(day)
	t.next.Store(int64(day) + 1)
	return true
}

// shard owns a disjoint subset of the tenant ID space. The mutex
// guards the map and order slice only — never held while a tenant
// runs, so Register/Unregister stay responsive mid-round.
type shard struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
	order   []string
}

// snapshot returns the shard's tenants in registration order. The
// returned slice is private to the caller.
func (s *shard) snapshot() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Tenant, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.tenants[id])
	}
	return out
}

// Manager schedules a fleet of tenants. Shard count is fixed at
// construction; tenants hash to shards by ID, so the assignment is a
// pure function of identity — never of registration or scheduling
// order.
type Manager struct {
	shards   []shard
	reg      *metrics.Registry
	tenants  *metrics.Gauge
	homeDays *metrics.Counter
	rounds   *metrics.Counter
	regTotal *metrics.Counter
	unregTot *metrics.Counter
}

// New builds a Manager with the given shard count (values < 1 are
// clamped to 1), registering its metrics with metrics.Default.
func New(shards int) *Manager { return NewWithRegistry(shards, metrics.Default) }

// NewWithRegistry is New with an explicit metrics registry, for tests
// that must not pollute the process-global one.
func NewWithRegistry(shards int, reg *metrics.Registry) *Manager {
	if shards < 1 {
		shards = 1
	}
	m := &Manager{
		shards:   make([]shard, shards),
		reg:      reg,
		tenants:  reg.Gauge(MetricTenants),
		homeDays: reg.Counter(MetricHomeDays),
		rounds:   reg.Counter(MetricRounds),
		regTotal: reg.Counter(MetricRegistered),
		unregTot: reg.Counter(MetricUnregistered),
	}
	for i := range m.shards {
		m.shards[i].tenants = make(map[string]*Tenant)
	}
	return m
}

// Shards returns the manager's shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// shardFor maps a tenant ID to its owning shard: FNV-1a over the ID
// bytes, reduced mod the shard count. Pure function of (id, shard
// count) — the determinism tests rely on that.
func (m *Manager) shardFor(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &m.shards[h%uint64(len(m.shards))]
}

// Register adds a tenant to the fleet. A tenant registered while
// RunAll is in flight joins at the next round. Registering a
// duplicate ID is an error.
func (m *Manager) Register(t *Tenant) error {
	if t == nil {
		return fmt.Errorf("fleet: register nil tenant")
	}
	s := m.shardFor(t.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[t.id]; ok {
		return fmt.Errorf("fleet: tenant %q already registered", t.id)
	}
	s.tenants[t.id] = t
	s.order = append(s.order, t.id)
	m.tenants.Add(1)
	m.regTotal.Inc()
	return nil
}

// Unregister removes a tenant and reports whether it was present. A
// tenant removed mid-round may still finish the one day its shard
// already dispatched; it will not be scheduled again.
func (m *Manager) Unregister(id string) bool {
	s := m.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[id]; !ok {
		return false
	}
	delete(s.tenants, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	m.tenants.Add(-1)
	m.unregTot.Inc()
	return true
}

// Get returns the tenant with the given ID, or nil.
func (m *Manager) Get(id string) *Tenant {
	s := m.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[id]
}

// Len returns the current tenant count.
func (m *Manager) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += len(s.tenants)
		s.mu.Unlock()
	}
	return n
}

// Tenants returns every registered tenant, shard by shard in
// registration order. The slice is a snapshot; concurrent
// Register/Unregister calls are not reflected.
func (m *Manager) Tenants() []*Tenant {
	var out []*Tenant
	for i := range m.shards {
		out = append(out, m.shards[i].snapshot()...)
	}
	return out
}

// RunRound runs one day-lockstep round: every shard, in parallel,
// steps each of its tenants that still has days left by exactly one
// day. It returns the number of (tenant, day) steps dispatched — zero
// means the fleet is drained. At most one RunRound/RunAll may be in
// flight at a time; Register and Unregister remain safe concurrently.
func (m *Manager) RunRound() int {
	var steps atomic.Int64
	parallel.Do(len(m.shards), func(i int) {
		n := m.shards[i].runRound()
		if n > 0 {
			steps.Add(int64(n))
		}
	})
	n := int(steps.Load())
	if n > 0 {
		m.rounds.Inc()
		m.homeDays.Add(int64(n))
	}
	return n
}

// runRound dispatches one day for each unfinished tenant of the
// shard. Hot path at fleet scale: per-event tenant dispatch must not
// allocate per tenant (the snapshot slice is the round's only
// allocation).
func (s *shard) runRound() int {
	n := 0
	for _, t := range s.snapshot() {
		if t.step() {
			n++
		}
	}
	return n
}

// RunAll runs rounds until no tenant makes progress: every tenant
// registered before the final round completes all of its days.
func (m *Manager) RunAll() {
	for m.RunRound() > 0 {
	}
}
