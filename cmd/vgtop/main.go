// Command vgtop is a terminal live view over a running VoiceGuard
// process's observability plane: per-label top-K counter and gauge
// tables, sparkline latency histograms with trace exemplars, SLO
// status, and the recent anomaly tail (dropped commands pulled from
// the flight recorder).
//
// Snapshots carrying two or more labeled homes — a multi-tenant fleet
// process — additionally render a fleet-aggregate section ranking the
// worst homes first by decision p99 (degraded verdicts breaking
// ties), so a thousand-tenant frame leads with the tenants that need
// attention instead of interleaving every home's series.
//
// It polls the debug endpoint a guard exposes with -metrics-addr
// (vgproxy), or renders a single frame from a saved snapshot file
// (vgbench -metrics-out).
//
// Usage:
//
//	vgtop -addr 127.0.0.1:9090              # live, redrawn every 2s
//	vgtop -addr 127.0.0.1:9090 -once       # one frame, no redraw
//	vgtop -snapshot metrics.json           # offline frame from a file
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"voiceguard"
	"voiceguard/internal/metrics"
	"voiceguard/internal/obs"
	"voiceguard/internal/trace"
)

// config carries the parsed flags through run.
type config struct {
	addr     string
	snapshot string
	interval time.Duration
	frames   int
	topK     int
	once     bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "debug endpoint to poll (host:port of a -metrics-addr)")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "render one frame from a saved metrics snapshot JSON file instead of polling")
	flag.DurationVar(&cfg.interval, "interval", 2*time.Second, "poll interval between frames")
	flag.IntVar(&cfg.frames, "n", 0, "stop after this many frames (0 = until interrupted)")
	flag.IntVar(&cfg.topK, "k", 8, "rows per table section")
	flag.BoolVar(&cfg.once, "once", false, "render a single frame and exit (no screen clearing)")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vgtop:", err)
		os.Exit(1)
	}
}

func run(cfg config, w io.Writer) error {
	if (cfg.addr == "") == (cfg.snapshot == "") {
		return fmt.Errorf("exactly one of -addr or -snapshot is required")
	}
	if cfg.snapshot != "" {
		snap, err := readSnapshotFile(cfg.snapshot)
		if err != nil {
			return err
		}
		return renderFrame(w, snap, nil, cfg.topK)
	}

	base := cfg.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}
	frames := cfg.frames
	if cfg.once {
		frames = 1
	}
	for i := 0; frames <= 0 || i < frames; i++ {
		if i > 0 {
			time.Sleep(cfg.interval)
		}
		snap, err := fetchSnapshot(client, base)
		if err != nil {
			return err
		}
		// Anomaly fetch is best-effort: a guard built without the
		// flight recorder still gets the metric tables.
		anomalies, _ := fetchAnomalies(client, base)
		if !cfg.once {
			// ANSI clear + home: redraw in place like top(1).
			if _, err := fmt.Fprint(w, "\x1b[2J\x1b[H"); err != nil {
				return err
			}
		}
		if err := renderFrame(w, snap, anomalies, cfg.topK); err != nil {
			return err
		}
	}
	return nil
}

// renderFrame evaluates the wire-plane SLOs against the snapshot and
// writes one vgtop frame.
func renderFrame(w io.Writer, snap metrics.Snapshot, anomalies []string, topK int) error {
	return obs.WriteTop(w, obs.TopView{
		Snapshot:  snap,
		SLO:       obs.Evaluate(snap, voiceguard.LiveObjectives()),
		Anomalies: anomalies,
		TopK:      topK,
	})
}

// readSnapshotFile loads a metrics snapshot JSON envelope (the /metrics
// ?format=json body, or a vgbench -metrics-out artifact).
func readSnapshotFile(path string) (metrics.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	return decodeSnapshot(data)
}

// fetchSnapshot polls the debug endpoint's JSON exposition.
func fetchSnapshot(client *http.Client, base string) (metrics.Snapshot, error) {
	resp, err := client.Get(base + "/?format=json")
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.Snapshot{}, fmt.Errorf("metrics endpoint: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	return decodeSnapshot(data)
}

func decodeSnapshot(data []byte) (metrics.Snapshot, error) {
	var envelope metrics.SnapshotJSON
	if err := json.Unmarshal(data, &envelope); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("invalid snapshot JSON: %w", err)
	}
	return envelope.Snapshot, nil
}

// fetchAnomalies pulls the flight-recorder JSONL export and returns a
// line per dropped command, oldest first, ready for the anomaly tail.
func fetchAnomalies(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/debug/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace endpoint: status %d", resp.StatusCode)
	}
	var out []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var span struct {
			Command uint64         `json:"command_id"`
			Stage   string         `json:"stage"`
			Name    string         `json:"name"`
			DurUS   int64          `json:"dur_us"`
			Attrs   map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(line, &span); err != nil {
			continue
		}
		if outcome, _ := span.Attrs[trace.AttrOutcome].(string); outcome != trace.OutcomeDrop {
			continue
		}
		out = append(out, fmt.Sprintf("drop cmd=%d %s/%s after %s",
			span.Command, span.Stage, span.Name,
			(time.Duration(span.DurUS)*time.Microsecond).Round(time.Millisecond)))
	}
	return out, sc.Err()
}
