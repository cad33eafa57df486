package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func base() config {
	return config{
		tcpSessions: 16,
		bursts:      2,
		dialConc:    8,
		fault:       "none",
		dropFrac:    0.1,
		stallFrac:   0.2,
	}
}

func TestValidate(t *testing.T) {
	if err := validate(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*config)
	}{
		{"bad fault", func(c *config) { c.fault = "gremlins" }},
		{"no sessions", func(c *config) { c.tcpSessions = 0; c.udpSessions = 0 }},
		{"negative drop frac", func(c *config) { c.dropFrac = -0.1 }},
		{"fracs exceed one", func(c *config) { c.dropFrac = 0.6; c.stallFrac = 0.6 }},
		{"zero bursts", func(c *config) { c.bursts = 0 }},
		{"fd exhaustion", func(c *config) { c.tcpSessions = 1 << 30 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if err := validate(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestFDBudget(t *testing.T) {
	cfg := base()
	cfg.tcpSessions, cfg.udpSessions = 3000, 2000
	need, _, ok := fdBudget(cfg)
	if !ok {
		t.Skip("no rlimit on this platform")
	}
	if want := uint64(4*3000 + 2*2000 + 256); need != want {
		t.Fatalf("fd need = %d, want %d", need, want)
	}
}

// TestRunFailsBrokenCheck drives a real run whose outcome breaks an
// invariant: stall floods against a budget far too large to fill
// never backpressure. run must still print and write the outcome, and
// then fail, which main turns into exit status 1.
func TestRunFailsBrokenCheck(t *testing.T) {
	cfg := base()
	cfg.tcpSessions, cfg.stallFrac, cfg.dropFrac = 2, 1, 0
	cfg.idleGap, cfg.burstEvery = 20*time.Millisecond, 60*time.Millisecond
	cfg.decisionMean, cfg.budgetBytes, cfg.stallWindow = 5*time.Millisecond, 1<<40, 50*time.Millisecond
	cfg.seed = 1
	cfg.jsonOut = filepath.Join(t.TempDir(), "wire.json")
	err := run(cfg)
	if err == nil || !strings.Contains(err.Error(), "no backpressure") {
		t.Fatalf("run = %v, want a failed backpressure check", err)
	}
	if _, statErr := os.Stat(cfg.jsonOut); statErr != nil {
		t.Fatalf("outcome not written before the failure: %v", statErr)
	}
}
