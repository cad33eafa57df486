// Command vgreplay re-runs the guard over a capture file written by
// vgsim -dump (or any pcap.WriteCapture output) on a simulated clock,
// printing how many spikes were held, recognized as commands, and
// released — offline analysis of what the guard saw. The capture
// carries no RSSI evidence, so every command is allowed.
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
	"voiceguard/internal/decision"
	"voiceguard/internal/guard"
	"voiceguard/internal/pcap"
	"voiceguard/internal/recognize"
	"voiceguard/internal/simtime"
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
		traceOut  = flag.String("trace-out", "", "write every recorded span to this JSONL file (the guard's spans for every spike)")
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

	stats := replay(speaker, rec, packets)
	fmt.Printf("replayed %d packets spanning %s from %s\n",
		stats.Packets, stats.Span.Round(time.Second), in)
	fmt.Printf("spikes held:        %d\n", stats.Holds)
	fmt.Printf("voice commands:     %d\n", stats.Commands)
	fmt.Printf("released non-voice: %d\n", stats.Releases)
	return nil
}

// replayStats summarises one replay of a capture.
type replayStats struct {
	Packets  int
	Holds    int // spikes the guard held
	Commands int // held spikes recognized as voice commands
	Releases int // held spikes released without a decision query
	Span     time.Duration
}

// replay feeds a recorded, time-ordered capture through a guard on a
// simulated clock, as the simulation does, and counts the guard's
// events: every spike it holds ends as one command or one release.
// Each command is allowed by a static "replay" decision. The guard
// records into the recognizer's tracer.
func replay(speaker string, rec *recognize.Recognizer, packets []pcap.Packet) replayStats {
	var stats replayStats
	if len(packets) == 0 {
		return stats
	}
	stats.Packets = len(packets)
	stats.Span = packets[len(packets)-1].Time.Sub(packets[0].Time)

	clock := simtime.NewSim(packets[0].Time)
	g := guard.New(clock, rec, &decision.StaticMethod{MethodName: "replay", Allow: true}, speaker)
	g.Tracer = rec.Tracer
	g.OnEvent(func(e guard.Event) {
		stats.Holds++
		if e.Kind == guard.EventCommand {
			stats.Commands++
		} else {
			stats.Releases++
		}
	})
	for i := range packets {
		clock.AdvanceTo(packets[i].Time)
		g.Feed(&packets[i])
	}
	clock.Run() // the last spike's idle timer
	return stats
}
