// Command vgproxy demonstrates the wire-plane Traffic Handler: an
// emulated cloud server, the transparent proxy in front of it, and an
// emulated speaker issuing commands through the proxy. Each command
// burst is held while the decision runs, then released or dropped
// according to -verdict.
//
// Usage:
//
//	vgproxy -commands 4 -hold 1.5s -verdict alternate
//	vgproxy -metrics-addr 127.0.0.1:9090   # metrics + /debug/pprof/ + /debug/trace
//	vgproxy -trace-out spans.jsonl -log-level debug -log-format json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	"voiceguard"
	"voiceguard/internal/cliutil"
	"voiceguard/internal/emul"
	"voiceguard/internal/metrics"
	"voiceguard/internal/obs"
	"voiceguard/internal/trace"
)

// config carries the parsed command-line flags through run.
type config struct {
	commands    int
	hold        time.Duration
	verdict     string
	metricsAddr string
	logLevel    string
	logFormat   string
	traceOut    string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.commands, "commands", 4, "voice commands to issue")
	flag.DurationVar(&cfg.hold, "hold", 1500*time.Millisecond, "hold duration while deciding")
	flag.StringVar(&cfg.verdict, "verdict", "alternate", "decision policy: allow|block|alternate")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve metrics, /debug/pprof/, and /debug/trace over HTTP on this address (e.g. 127.0.0.1:9090)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured log level: off|debug|info|warn|error")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "structured log format: text|json")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write every recorded span to this JSONL file")
	flag.Parse()

	if err := validateVerdict(cfg.verdict); err != nil {
		fmt.Fprintln(os.Stderr, "vgproxy:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vgproxy:", err)
		os.Exit(1)
	}
}

// validateVerdict rejects unknown -verdict values up front: a typo
// must fail loudly with usage, not silently behave like "alternate".
func validateVerdict(v string) error {
	return cliutil.OneOf("-verdict", v, "allow", "block", "alternate")
}

// newDebugMux assembles the HTTP surface served on -metrics-addr:
// the metrics snapshot at /, liveness and readiness probes, the
// flight-recorder dump at /debug/trace, and the standard pprof
// profiles. pprof's handlers only self-register on
// http.DefaultServeMux, so a private mux wires them explicitly.
func newDebugMux(ready func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", metrics.Handler(metrics.Default))
	mux.Handle("/healthz", obs.HealthHandler())
	mux.Handle("/readyz", obs.ReadyHandler(ready))
	mux.Handle("/debug/trace", trace.Handler(trace.Default))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(cfg config) error {
	if err := validateVerdict(cfg.verdict); err != nil {
		return err
	}
	closeTrace, err := trace.SetupFromFlags(trace.Default, cfg.logLevel, cfg.logFormat, cfg.traceOut)
	if err != nil {
		return err
	}
	defer func() { _ = closeTrace() }()

	cloud, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer cloud.Close()
	fmt.Printf("cloud server   %s\n", cloud.Addr())

	var ready atomic.Bool
	if cfg.metricsAddr != "" {
		lis, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("cannot bind -metrics-addr %q: %w", cfg.metricsAddr, err)
		}
		srv := &http.Server{Handler: newDebugMux(ready.Load)}
		go func() { _ = srv.Serve(lis) }()
		defer srv.Close()
		// Runtime telemetry (goroutines, heap, GC pauses, scheduler
		// latency) feeds the same registry while the endpoint is up.
		stopRuntime := obs.NewRuntime(nil).Start(5 * time.Second)
		defer stopRuntime()
		trace.Default.Logger().Info("debug endpoint bound",
			"addr", lis.Addr().String(),
			"endpoints", "/ /healthz /readyz /debug/trace /debug/pprof/")
		fmt.Printf("metrics        http://%s/ (text; ?format=json for JSON)\n", lis.Addr())
		fmt.Printf("probes         http://%s/healthz and /readyz\n", lis.Addr())
		fmt.Printf("debug          http://%s/debug/trace and /debug/pprof/\n", lis.Addr())
	}

	var counter atomic.Int64
	decide := func(ctx context.Context) bool {
		select {
		case <-time.After(cfg.hold):
		case <-ctx.Done():
			return false
		}
		switch cfg.verdict {
		case "allow":
			return true
		case "block":
			return false
		default: // alternate: odd commands legit, even malicious
			return counter.Add(1)%2 == 1
		}
	}

	proxy, err := voiceguard.StartLiveProxy("127.0.0.1:0", cloud.Addr(), decide, time.Second)
	if err != nil {
		return err
	}
	defer proxy.Close()
	ready.Store(true)
	fmt.Printf("guard proxy    %s (hold %v, policy %s)\n\n", proxy.Addr(), cfg.hold, cfg.verdict)

	for i := 1; i <= cfg.commands; i++ {
		speaker, err := emul.DialSpeaker(proxy.Addr())
		if err != nil {
			return err
		}
		start := time.Now()
		if err := speaker.SendCommand(3, 800); err != nil {
			_ = speaker.Close()
			return err
		}
		frame, err := speaker.Await(cfg.hold + 1500*time.Millisecond)
		switch {
		case err == nil && frame.Type == emul.MsgResponse:
			fmt.Printf("command %d: RELEASED — cloud responded after %.3fs\n", i, time.Since(start).Seconds())
		case errors.Is(err, emul.ErrSessionClosed):
			fmt.Printf("command %d: DROPPED — TLS session terminated by the cloud\n", i)
		case err != nil:
			fmt.Printf("command %d: DROPPED — no response (%v)\n", i, err)
		}
		_ = speaker.Close()
	}

	stats := proxy.Stats()
	fmt.Printf("\nheld %d bursts: released %d, dropped %d\n",
		stats.CommandsHeld, stats.CommandsReleased, stats.CommandsDropped)
	fmt.Printf("cloud executed %d command(s); %d session(s) aborted on sequence gaps\n",
		cloud.CompletedCommands(), cloud.SequenceAborts())
	snap := metrics.Default.Snapshot()
	fmt.Println("\n== slo ==")
	if err := obs.WriteReport(os.Stdout, obs.Evaluate(snap, voiceguard.LiveObjectives(), nil)); err != nil {
		return err
	}
	fmt.Println("\n== metrics ==")
	return metrics.WriteTable(os.Stdout, snap)
}
