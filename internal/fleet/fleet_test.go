package fleet

import (
	"fmt"
	"sync"
	"testing"

	"voiceguard/internal/metrics"
	"voiceguard/internal/parallel"
)

// stubHome records the day sequence it was driven through. The fleet
// contract says exactly one goroutine drives a home at a time, so the
// slice needs no lock; the race detector verifies the contract.
type stubHome struct {
	days int
	ran  []int
}

func (s *stubHome) Days() int       { return s.days }
func (s *stubHome) RunDay(day int)  { s.ran = append(s.ran, day) }
func (s *stubHome) sequence() []int { return s.ran }

func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	fn()
}

func newTestManager(tasks int) *Manager {
	return NewWithRegistry(tasks, metrics.NewRegistry())
}

func TestNewTenantValidates(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty id": func() { NewTenant("", &stubHome{days: 1}) },
		"nil home": func() { NewTenant("x", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTenant with %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRegisterSemantics(t *testing.T) {
	m := newTestManager(4)
	first, dup := &stubHome{days: 3}, &stubHome{days: 1}
	if err := m.Register(NewTenant("a", first)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := m.Register(NewTenant("a", dup)); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if err := m.Register(nil); err == nil {
		t.Fatal("nil Register succeeded")
	}
	m.RunAll()
	if len(first.sequence()) != 3 || len(dup.sequence()) != 0 {
		t.Fatalf("first ran %v, rejected duplicate ran %v; want 3 days and none",
			first.sequence(), dup.sequence())
	}
}

// TestRunAllLockstep verifies every tenant runs every day exactly
// once, in order, and that rounds advance the fleet one day at a time.
func TestRunAllLockstep(t *testing.T) {
	m := newTestManager(8)
	stubs := make([]*stubHome, 20)
	for i := range stubs {
		stubs[i] = &stubHome{days: 3}
		if err := m.Register(NewTenant(fmt.Sprintf("home-%d", i), stubs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.RunRound(); n != 20 {
		t.Fatalf("round 1 steps = %d, want 20", n)
	}
	for i, s := range stubs {
		if len(s.sequence()) != 1 {
			t.Fatalf("stub %d ran %v after one round, want exactly day 0", i, s.sequence())
		}
	}
	m.RunAll()
	for i, s := range stubs {
		got := s.sequence()
		if len(got) != 3 {
			t.Fatalf("stub %d ran %d days, want 3", i, len(got))
		}
		for d, day := range got {
			if day != d {
				t.Fatalf("stub %d day sequence %v out of order", i, got)
			}
		}
	}
	if n := m.RunRound(); n != 0 {
		t.Fatalf("drained fleet still made %d steps", n)
	}
}

// TestShardAndWorkerCountInvariance drives identical tenant sets
// through every (tasks, workers) combination and requires the same
// day sequences — scheduling layout must be unobservable.
func TestShardAndWorkerCountInvariance(t *testing.T) {
	run := func(tasks, workers int) [][]int {
		var seqs [][]int
		withWorkers(t, workers, func() {
			m := newTestManager(tasks)
			stubs := make([]*stubHome, 33)
			for i := range stubs {
				stubs[i] = &stubHome{days: 2 + i%3}
				if err := m.Register(NewTenant(fmt.Sprintf("home-%04d", i), stubs[i])); err != nil {
					t.Fatal(err)
				}
			}
			m.RunAll()
			for _, s := range stubs {
				seqs = append(seqs, s.sequence())
			}
		})
		return seqs
	}
	want := run(1, 1)
	for _, c := range []struct{ tasks, workers int }{{1, 8}, {16, 1}, {16, 8}, {5, 3}, {64, 4}} {
		got := run(c.tasks, c.workers)
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("tasks=%d workers=%d: stub %d ran %v, want %v",
					c.tasks, c.workers, i, got[i], want[i])
			}
		}
	}
}

// TestRegisterMidRun registers a tenant while the fleet is mid-run
// (deterministically, between rounds) and expects it to join and
// complete.
func TestRegisterMidRun(t *testing.T) {
	m := newTestManager(4)
	early := &stubHome{days: 4}
	if err := m.Register(NewTenant("early", early)); err != nil {
		t.Fatal(err)
	}
	m.RunRound()
	m.RunRound()
	late := &stubHome{days: 2}
	if err := m.Register(NewTenant("late", late)); err != nil {
		t.Fatal(err)
	}
	m.RunAll()
	if len(early.sequence()) != 4 {
		t.Fatalf("early ran %v, want 4 days", early.sequence())
	}
	if len(late.sequence()) != 2 {
		t.Fatalf("late ran %v, want 2 days", late.sequence())
	}
}

func TestMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewWithRegistry(2, reg)
	for i := 0; i < 3; i++ {
		if err := m.Register(NewTenant(fmt.Sprintf("h%d", i), &stubHome{days: 2})); err != nil {
			t.Fatal(err)
		}
	}
	m.RunAll()
	snap := reg.Snapshot()
	want := map[string]int64{
		MetricHomeDays: 6,
		MetricRounds:   2,
	}
	got := map[string]int64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Value
	}
	if len(got) != len(want) || len(snap.Gauges) != 0 {
		t.Errorf("fleet registered counters %v and %d gauges, want only %v", got, len(snap.Gauges), want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
}

// TestConcurrentChurn registers tenants while the fleet runs — the go
// test -race gate for mid-run registration. Every tenant registered
// before the final drain must run all of its days, in order.
func TestConcurrentChurn(t *testing.T) {
	withWorkers(t, 4, func() {
		m := newTestManager(8)
		var homes []*stubHome
		for i := 0; i < 16; i++ {
			h := &stubHome{days: 6}
			homes = append(homes, h)
			if err := m.Register(NewTenant(fmt.Sprintf("base-%d", i), h)); err != nil {
				t.Fatal(err)
			}
		}
		late := make([]*stubHome, 200)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range late {
				late[i] = &stubHome{days: 1 + i%3}
				if err := m.Register(NewTenant(fmt.Sprintf("late-%d", i), late[i])); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		m.RunAll()
		wg.Wait()
		// Tenants registered after the final round still need draining.
		m.RunAll()
		for i, h := range append(homes, late...) {
			got := h.sequence()
			if len(got) != h.days {
				t.Fatalf("home %d ran %v, want %d days", i, got, h.days)
			}
			for d, day := range got {
				if day != d {
					t.Fatalf("home %d day sequence %v out of order", i, got)
				}
			}
		}
	})
}

// countHome counts the days it ran without allocating.
type countHome struct{ days, ran int }

func (c *countHome) Days() int  { return c.days }
func (c *countHome) RunDay(int) { c.ran++ }

// TestRoundAllocationsIndependentOfTenants pins a round's dispatch
// cost: what RunRound allocates must not grow with the tenant count.
func TestRoundAllocationsIndependentOfTenants(t *testing.T) {
	withWorkers(t, 1, func() {
		perRound := func(tenants int) float64 {
			m := newTestManager(16)
			for i := 0; i < tenants; i++ {
				if err := m.Register(NewTenant(fmt.Sprintf("home-%d", i), &countHome{days: 1000})); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(100, func() {
				if m.RunRound() != tenants {
					t.Fatal("a round left a tenant unstepped")
				}
			})
		}
		if few, many := perRound(4), perRound(64); few != many {
			t.Fatalf("a round allocates %.0f times for 4 tenants but %.0f for 64", few, many)
		}
	})
}
