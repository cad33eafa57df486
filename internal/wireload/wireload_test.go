package wireload

import (
	"testing"
	"time"
)

// TestProxyPlaneSmoke runs a small load with all four classes (legit,
// drop churn, stall flood, UDP) on the wire plane, TCP through the
// guard and UDP through the proxy forwarder, and checks the run's
// structural invariants: a command held on every class, every held
// command resolved, the budget enforced, the stall flood's
// backpressure observed, legit commands released, drop sessions
// reconnected, and no session state left after close.
func TestProxyPlaneSmoke(t *testing.T) {
	out, err := Run(Config{
		TCPSessions:     24,
		UDPSessions:     8,
		IdleGap:         40 * time.Millisecond,
		BurstEvery:      150 * time.Millisecond,
		BaselineBursts:  1,
		MeasureBursts:   2,
		DecisionMean:    5 * time.Millisecond,
		HoldDeadline:    300 * time.Millisecond,
		BudgetBytes:     64 << 10,
		DropFrac:        0.2,
		StallFrac:       0.25,
		StallWindow:     600 * time.Millisecond,
		Seed:            7,
		DialConcurrency: 16,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("\n%s", out.Text())
	if out.Legit == 0 || out.Drop == 0 || out.Stall == 0 {
		t.Fatalf("class mix %d/%d/%d leaves a TCP class out", out.Legit, out.Drop, out.Stall)
	}
	if err := out.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestGuardPlaneSmoke runs a small TCP-only load through the guard
// with no stall flood and no UDP: the full recognizer pipeline on
// every session, with commands held, released and dropped and no
// session state left after close.
func TestGuardPlaneSmoke(t *testing.T) {
	out, err := Run(Config{
		TCPSessions:     12,
		IdleGap:         60 * time.Millisecond,
		BurstEvery:      200 * time.Millisecond,
		BaselineBursts:  1,
		MeasureBursts:   2,
		DecisionMean:    5 * time.Millisecond,
		HoldDeadline:    300 * time.Millisecond,
		BudgetBytes:     256 << 10,
		DropFrac:        0.2,
		Seed:            3,
		DialConcurrency: 8,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("\n%s", out.Text())
	if out.Stall != 0 || out.UDPSessions != 0 {
		t.Fatalf("stall %d, UDP %d: want a guard-only load", out.Stall, out.UDPSessions)
	}
	if out.BurstsHeld == 0 {
		t.Fatal("no commands were held")
	}
	if out.BurstsReleased == 0 {
		t.Fatal("no commands were released")
	}
	if out.TrackedLeftover != 0 {
		t.Fatalf("leftover session state after close: %d", out.TrackedLeftover)
	}
	if err := out.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckNamesEveryBrokenInvariant feeds Check outcomes that break
// one invariant each.
func TestCheckNamesEveryBrokenInvariant(t *testing.T) {
	good := Outcome{
		TCPSessions: 3, Legit: 1, Drop: 1, Stall: 1,
		StallWindow:    time.Second,
		SessionsPerSec: 100,
		BurstsHeld:     4, BurstsReleased: 2, BurstsDropped: 2,
		Reconnects: 1,
		BudgetMax:  1 << 10, BudgetUsedPeak: 1 << 10, BudgetWaits: 3,
		WithinBudget: true, Backpressured: true,
	}
	if err := good.Check(); err != nil {
		t.Fatalf("good outcome: %v", err)
	}
	for name, mutate := range map[string]func(*Outcome){
		"no setup":        func(o *Outcome) { o.SessionsPerSec = 0 },
		"nothing held":    func(o *Outcome) { o.BurstsHeld, o.BurstsReleased, o.BurstsDropped = 0, 0, 0 },
		"unresolved hold": func(o *Outcome) { o.BurstsHeld++ },
		"over budget":     func(o *Outcome) { o.BudgetUsedPeak, o.WithinBudget = 2<<10, false },
		"leftover state":  func(o *Outcome) { o.TrackedLeftover = 1 },
		"no backpressure": func(o *Outcome) { o.BudgetWaits, o.Backpressured = 0, false },
		"none released":   func(o *Outcome) { o.BurstsReleased, o.BurstsDropped = 0, 4 },
		"no reconnects":   func(o *Outcome) { o.Reconnects = 0 },
	} {
		o := good
		mutate(&o)
		if o.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
	quiet := good
	quiet.BudgetWaits, quiet.Backpressured, quiet.StallWindow = 0, false, 0
	if err := quiet.Check(); err != nil {
		t.Errorf("no stall window, no backpressure expected: %v", err)
	}
}
