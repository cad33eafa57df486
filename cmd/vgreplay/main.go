// Command vgreplay re-runs the Voice Command Traffic Recognition
// sub-module over a capture file written by vgsim -dump (or any
// pcap.WriteCapture output), printing how many spikes were held,
// recognized as commands, and released — offline analysis of what the
// guard saw.
//
// Usage:
//
//	vgsim -days 1 -dump run.vgc
//	vgreplay -in run.vgc
//	vgreplay -in run.vgc -speaker ghm -ip 192.168.1.201
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"voiceguard/internal/cliutil"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

func main() {
	var (
		in        = flag.String("in", "", "capture file to replay (required)")
		speaker   = flag.String("speaker", "echo", "recognition procedure: echo|ghm")
		ip        = flag.String("ip", trafficgen.EchoIP, "the speaker's IP address in the capture")
		logLevel  = flag.String("log-level", "off", "structured log level: off|debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "structured log format: text|json")
		traceOut  = flag.String("trace-out", "", "write every recorded span to this JSONL file (one classify span per spike)")
	)
	flag.Parse()

	// Invalid flag values are usage errors: reject them up front with
	// usage and exit 2 (the vgproxy standard), before any work starts.
	if err := validate(*in, *speaker, *ip); err != nil {
		fmt.Fprintln(os.Stderr, "vgreplay:", err)
		flag.Usage()
		os.Exit(2)
	}

	closeTrace, err := trace.SetupFromFlags(trace.Default, *logLevel, *logFormat, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgreplay:", err)
		os.Exit(2)
	}
	if err := run(*in, *speaker, *ip); err != nil {
		_ = closeTrace()
		fmt.Fprintln(os.Stderr, "vgreplay:", err)
		os.Exit(1)
	}
	_ = closeTrace()
}

// validate checks the flag values. A mistyped -ip would match no
// packet and replay into silence, so it is a usage error too.
func validate(in, speaker, ip string) error {
	return cliutil.FirstError(
		cliutil.NonEmpty("-in", in),
		cliutil.OneOf("-speaker", speaker, "echo", "ghm"),
		cliutil.IPv4("-ip", ip),
	)
}

func run(in, speaker, ip string) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	speakerIP, err := pcap.ParseIPv4(ip)
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	packets, err := pcap.ReadCapture(f)
	if err != nil {
		return err
	}
	if len(packets) == 0 {
		return fmt.Errorf("capture %s is empty", in)
	}

	var rec *recognize.Recognizer
	switch speaker {
	case "echo":
		rec = recognize.NewEcho(speakerIP)
	case "ghm":
		rec = recognize.NewGHM(speakerIP)
	default:
		return fmt.Errorf("unknown speaker %q", speaker)
	}

	stats := recognize.Replay(rec, packets)
	fmt.Printf("replayed %d packets spanning %s from %s\n",
		stats.Packets, stats.Span.Round(time.Second), in)
	fmt.Printf("spikes held:        %d\n", stats.Holds)
	fmt.Printf("voice commands:     %d\n", stats.Commands)
	fmt.Printf("released non-voice: %d\n", stats.Releases)
	return nil
}
