package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// cfg builds a run configuration with logging off, as the demo tests
// only care about traffic outcomes.
func cfg(commands int, hold time.Duration, verdict, metricsAddr string) config {
	return config{
		commands:    commands,
		hold:        hold,
		verdict:     verdict,
		metricsAddr: metricsAddr,
		logLevel:    "off",
		logFormat:   "text",
	}
}

func TestRunAlternatePolicy(t *testing.T) {
	if err := run(cfg(4, 50*time.Millisecond, "alternate", "")); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllowPolicy(t *testing.T) {
	if err := run(cfg(2, 30*time.Millisecond, "allow", "")); err != nil {
		t.Fatal(err)
	}
}

func TestRunBlockPolicy(t *testing.T) {
	if err := run(cfg(2, 30*time.Millisecond, "block", "")); err != nil {
		t.Fatal(err)
	}
}

func TestValidateVerdict(t *testing.T) {
	cases := []struct {
		verdict string
		wantErr bool
	}{
		{"allow", false},
		{"block", false},
		{"alternate", false},
		{"", true},
		{"allw", true},
		{"ALLOW", true},
		{"deny", true},
		{"alternate ", true},
	}
	for _, c := range cases {
		err := validateVerdict(c.verdict)
		if gotErr := err != nil; gotErr != c.wantErr {
			t.Errorf("validateVerdict(%q) error = %v, want error %v", c.verdict, err, c.wantErr)
		}
	}
}

func TestRunRejectsBadVerdict(t *testing.T) {
	if err := run(cfg(1, time.Millisecond, "deny", "")); err == nil {
		t.Fatal("run accepted an invalid verdict")
	}
}

func TestRunRejectsBadLogLevel(t *testing.T) {
	c := cfg(1, time.Millisecond, "allow", "")
	c.logLevel = "loud"
	if err := run(c); err == nil {
		t.Fatal("run accepted an invalid log level")
	}
}

// TestRunRejectsTakenMetricsAddr asserts the bind failure surfaces as
// a clear error (main turns it into a non-zero exit).
func TestRunRejectsTakenMetricsAddr(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	err = run(cfg(1, time.Millisecond, "allow", lis.Addr().String()))
	if err == nil {
		t.Fatal("run bound an already-taken -metrics-addr")
	}
	if !strings.Contains(err.Error(), "-metrics-addr") {
		t.Fatalf("bind error does not name the flag: %v", err)
	}
}

// freePort grabs and releases an ephemeral port so run can bind it.
func freePort(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close()
	return addr
}

// get polls the URL until the server answers or the deadline passes.
func get(t *testing.T, url string) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return body
			}
			err = fmt.Errorf("status %d: %v", resp.StatusCode, rerr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up: %v", url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRunServesMetrics(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() { done <- run(cfg(1, 2*time.Second, "allow", addr)) }()

	// While the command's hold is pending, the metrics endpoint must
	// answer in both formats.
	body := get(t, fmt.Sprintf("http://%s/?format=json", addr))
	var decoded map[string]any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("metrics endpoint returned invalid JSON: %v\n%s", err, body)
	}
	if _, ok := decoded["counters"]; !ok {
		t.Fatalf("metrics JSON missing counters: %s", body)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunServesProbes asserts the liveness and readiness probes on
// the -metrics-addr mux: /healthz answers 200, /readyz flips to 200
// once the proxy is wired, and probe endpoints reject non-GET/HEAD.
func TestRunServesProbes(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() { done <- run(cfg(1, 2*time.Second, "allow", addr)) }()

	if body := get(t, fmt.Sprintf("http://%s/healthz", addr)); !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz body = %q, want ok", body)
	}
	if body := get(t, fmt.Sprintf("http://%s/readyz", addr)); !strings.Contains(string(body), "ready") {
		t.Fatalf("/readyz body = %q, want ready", body)
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/healthz", addr), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("405 Allow header = %q, want GET, HEAD", allow)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunServesDebugEndpoints asserts the -metrics-addr mux also
// exposes the pprof index and the flight-recorder trace dump.
func TestRunServesDebugEndpoints(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() { done <- run(cfg(1, 2*time.Second, "allow", addr)) }()

	if body := get(t, fmt.Sprintf("http://%s/debug/pprof/", addr)); !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index does not list profiles:\n%.200s", body)
	}
	body := get(t, fmt.Sprintf("http://%s/debug/trace", addr))
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" {
			continue
		}
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("/debug/trace line is not JSON: %v\n%s", err, line)
		}
	}
	if body := get(t, fmt.Sprintf("http://%s/debug/trace?format=chrome", addr)); !strings.Contains(string(body), "traceEvents") {
		t.Fatalf("/debug/trace?format=chrome missing traceEvents:\n%.200s", body)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunWritesTraceOut asserts -trace-out captures the demo's spans
// as parseable JSONL with command IDs.
func TestRunWritesTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	c := cfg(1, 30*time.Millisecond, "allow", "")
	c.traceOut = out
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, withID := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var span struct {
			CommandID uint64 `json:"command_id"`
			Stage     string `json:"stage"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("bad JSONL line: %v\n%s", err, sc.Text())
		}
		lines++
		if span.CommandID != 0 {
			withID++
		}
	}
	if lines == 0 {
		t.Fatal("-trace-out produced no spans")
	}
	if withID == 0 {
		t.Fatal("no span carries a command ID")
	}
}

// Every objective in the exit == slo == block has data from the run
// itself: the wire plane's set holds no objective on a metric the wire
// never records.
func TestRunSLOReportHasNoNoData(t *testing.T) {
	var out strings.Builder
	c := cfg(2, 20*time.Millisecond, "alternate", "")
	c.out = &out
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	start := strings.Index(report, "== slo ==")
	end := strings.Index(report, "== metrics ==")
	if start < 0 || end < start {
		t.Fatalf("no == slo == block in:\n%s", report)
	}
	slo := report[start:end]
	if strings.Contains(slo, "NODATA") {
		t.Fatalf("exit SLO block has an objective without data:\n%s", slo)
	}
	if !strings.Contains(slo, "live-hold-p99") {
		t.Fatalf("exit SLO block lacks live-hold-p99:\n%s", slo)
	}
}
