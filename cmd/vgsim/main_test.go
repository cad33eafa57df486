package main

import (
	"os"
	"path/filepath"
	"testing"

	"voiceguard/internal/pcap"
)

func TestRunAllTestbeds(t *testing.T) {
	tests := []struct {
		name    string
		testbed string
		speaker string
		devices string
	}{
		{name: "house echo", testbed: "house", speaker: "echo", devices: "pixel5,pixel4a"},
		{name: "apartment ghm", testbed: "apartment", speaker: "ghm", devices: "pixel5"},
		{name: "office watch", testbed: "office", speaker: "echo", devices: "watch4"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.testbed, "A", tt.speaker, 1, 1, tt.devices, false, true, ""); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("moonbase", "A", "echo", 1, 1, "pixel5", false, false, ""); err == nil {
		t.Fatal("unknown testbed accepted")
	}
	if err := run("house", "A", "cassette", 1, 1, "pixel5", false, false, ""); err == nil {
		t.Fatal("unknown speaker accepted")
	}
	if err := run("house", "A", "echo", 1, 1, "pixel5,telegraph", false, false, ""); err == nil {
		t.Fatal("unknown device accepted")
	}
	if err := run("house", "A", "echo", 1, 1, "pixel5,pixel5", false, false, ""); err == nil {
		t.Fatal("repeated device accepted")
	}
}

func TestRunDumpWritesReadableCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.vgc")
	if err := run("house", "A", "echo", 1, 2, "pixel5", false, false, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	packets, err := pcap.ReadCapture(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) == 0 {
		t.Fatal("dumped capture is empty")
	}
}

func TestExportAndRunCustomPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := exportPlan("apartment", path); err != nil {
		t.Fatal(err)
	}
	if err := runCustomPlan(path, "A", "echo", 1, 5, "pixel5"); err != nil {
		t.Fatal(err)
	}
}

func TestCustomPlanErrors(t *testing.T) {
	if err := exportPlan("moonbase", filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("unknown testbed accepted")
	}
	if err := runCustomPlan("/nonexistent.json", "A", "echo", 1, 1, "pixel5"); err == nil {
		t.Fatal("missing plan file accepted")
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := exportPlan("house", path); err != nil {
		t.Fatal(err)
	}
	if err := runCustomPlan(path, "Z", "echo", 1, 1, "pixel5"); err == nil {
		t.Fatal("unknown spot accepted")
	}
	if err := runCustomPlan(path, "A", "cassette", 1, 1, "pixel5"); err == nil {
		t.Fatal("unknown speaker accepted")
	}
	if err := runCustomPlan(path, "A", "echo", 1, 1, "abacus"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestRunNoFloorTrackingAblation(t *testing.T) {
	if err := run("house", "A", "echo", 1, 3, "pixel5", true, false, ""); err != nil {
		t.Fatal(err)
	}
}
