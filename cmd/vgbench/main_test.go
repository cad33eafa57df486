package main

import (
	"path/filepath"
	"testing"
)

// TestRunEveryExperiment exercises each experiment once with reduced
// workloads — the end-to-end check that every artifact still
// regenerates.
func TestRunEveryExperiment(t *testing.T) {
	for _, exp := range []string{
		"table1", "table2", "table3", "table4",
		"fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"corpus", "attacks", "robustness", "sensitivity", "faults", "homeday", "fleet",
	} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp, 1 /* seed */, 1 /* day */, 30 /* invocations */, 15 /* queries */, 6 /* homes */, 16 /* wireTCP */, "drop20" /* fault */); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Fig. 4 runs on real sockets with real holds; keep it out of -short.
func TestRunFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket holds")
	}
	if err := run("fig4", 1, 1, 10, 5, 6, 16, "all"); err != nil {
		t.Fatal(err)
	}
}

// The wire experiment drives real sockets through a live guard; like
// fig4 it stays out of -short.
func TestRunWire(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket load harness")
	}
	if err := run("wire", 1, 1, 10, 5, 6, 24, "all"); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", 1, 1, 10, 5, 6, 16, "all"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunWithCSVOutput(t *testing.T) {
	dir := t.TempDir()
	csvInto = dir
	defer func() { csvInto = "" }()
	if err := run("fig10", 1, 1, 10, 5, 6, 16, "all"); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig10_case*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 4 {
		t.Fatalf("CSV files = %d, want 4", len(matches))
	}
}
