package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

// writeTestCapture builds a small Echo capture on disk.
func writeTestCapture(t *testing.T) string {
	t.Helper()
	src := rng.New(1)
	echo := trafficgen.NewEcho(src)
	echo.AnomalyRate = 0
	start := time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)
	boot, err := echo.Boot(start)
	if err != nil {
		t.Fatal(err)
	}
	capture := append(boot, echo.Invocation(start.Add(time.Minute), 1).All()...)

	path := filepath.Join(t.TempDir(), "test.vgc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcap.WriteCapture(f, capture); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReplaysCapture(t *testing.T) {
	path := writeTestCapture(t)
	if err := run(path, "echo", trafficgen.EchoIP); err != nil {
		t.Fatal(err)
	}
}

func TestRunGHMProcedure(t *testing.T) {
	path := writeTestCapture(t)
	if err := run(path, "ghm", trafficgen.GHMIP); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "echo", trafficgen.EchoIP); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run("/nonexistent/file.vgc", "echo", trafficgen.EchoIP); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeTestCapture(t)
	if err := run(path, "gramophone", trafficgen.EchoIP); err == nil {
		t.Fatal("unknown speaker accepted")
	}

	// Empty capture file.
	empty := filepath.Join(t.TempDir(), "empty.vgc")
	f, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcap.WriteCapture(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if err := run(empty, "echo", trafficgen.EchoIP); err == nil {
		t.Fatal("empty capture accepted")
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name, in, speaker, ip string
		wantErr               string // "" means valid
	}{
		{"defaults", "run.vgc", "echo", trafficgen.EchoIP, ""},
		{"ghm", "run.vgc", "ghm", trafficgen.GHMIP, ""},
		{"missing -in", "", "echo", trafficgen.EchoIP, "-in is required"},
		{"bad speaker", "run.vgc", "siri", trafficgen.EchoIP, `invalid -speaker "siri"`},
		{"ip typo", "run.vgc", "echo", "192.168.1.2OO", `invalid -ip "192.168.1.2OO"`},
		{"ip hostname", "run.vgc", "echo", "echo.local", `invalid -ip "echo.local"`},
		{"ip leading zero", "run.vgc", "echo", "192.168.001.200", `invalid -ip "192.168.001.200"`},
		{"ip six", "run.vgc", "echo", "fe80::1", `invalid -ip "fe80::1"`},
		{"ip empty", "run.vgc", "echo", "", `invalid -ip ""`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validate(c.in, c.speaker, c.ip)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("validate = %v, want nil", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("validate = %v, want an error containing %q", err, c.wantErr)
			}
		})
	}
}

// TestMainRejectsBadIPWithUsage runs the command itself (this test
// binary re-executed into main) with a mistyped -ip: it must print the
// error and the usage text and exit 2 before reading the capture.
func TestMainRejectsBadIPWithUsage(t *testing.T) {
	if os.Getenv("VGREPLAY_RUN_MAIN") == "1" {
		os.Args = []string{"vgreplay", "-in", os.Getenv("VGREPLAY_IN"), "-ip", "192.168.1.2OO"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainRejectsBadIPWithUsage$")
	cmd.Env = append(os.Environ(), "VGREPLAY_RUN_MAIN=1", "VGREPLAY_IN="+writeTestCapture(t))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want exit status 2; output:\n%s", err, out)
	}
	for _, want := range []string{`invalid -ip "192.168.1.2OO"`, "Usage of"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
