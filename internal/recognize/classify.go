// Package recognize implements the Voice Command Traffic Recognition
// sub-module (§IV-B1): classifying traffic spikes into command-phase
// and response-phase using the Echo Dot's packet-length markers,
// tracking the AVS server's changing IP address through DNS responses
// and connection-establishment packet-level signatures, and a
// streaming recognizer that drives hold decisions packet by packet.
package recognize

import (
	"voiceguard/internal/pcap"
	"voiceguard/internal/trafficgen"
)

// SpikeClass is the classification of one traffic spike.
type SpikeClass int

// Spike classes.
const (
	ClassUnknown  SpikeClass = iota // neither phase's patterns matched
	ClassCommand                    // first phase: carries a voice command
	ClassResponse                   // second phase: the spoken response
)

// String names the class.
func (c SpikeClass) String() string {
	switch c {
	case ClassCommand:
		return "command"
	case ClassResponse:
		return "response"
	default:
		return "unknown"
	}
}

// Window sizes from §IV-B1: command markers appear within the first
// five packets; response markers within the first seven.
const (
	commandWindow  = 5
	responseWindow = 7
)

// ClassifyEchoSpike classifies an Echo Dot spike from its packet
// lengths:
//
//   - p-77 immediately followed by p-33 within the first seven
//     packets marks a response-phase spike;
//   - p-138 or p-75 within the first five packets marks a
//     command-phase spike;
//   - otherwise one of the three fixed fallback patterns (first
//     packet in [250, 650], then the fixed tail) marks a command;
//   - anything else is unknown (treated as not a command).
func ClassifyEchoSpike(lengths []int) SpikeClass {
	if hasAdjacent(lengths, trafficgen.P77, trafficgen.P33, responseWindow) {
		mPhase2Markers.Inc()
		return ClassResponse
	}
	if hasWithin(lengths, trafficgen.P138, commandWindow) || hasWithin(lengths, trafficgen.P75, commandWindow) {
		mPhase1Markers.Inc()
		return ClassCommand
	}
	if matchesCommandFallback(lengths) {
		mFallbackMatches.Inc()
		return ClassCommand
	}
	return ClassUnknown
}

// matchesCommandFallback reports whether the first five lengths match
// one of the fixed command-phase patterns.
func matchesCommandFallback(lengths []int) bool {
	if len(lengths) < commandWindow {
		return false
	}
	if lengths[0] < trafficgen.FirstPacketMin || lengths[0] > trafficgen.FirstPacketMax {
		return false
	}
	for _, pattern := range trafficgen.CommandFallbackPatterns {
		ok := true
		for i := 1; i < commandWindow; i++ {
			if lengths[i] != pattern[i] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// hasWithin reports whether v occurs in the first limit entries.
func hasWithin(lengths []int, v, limit int) bool {
	if limit > len(lengths) {
		limit = len(lengths)
	}
	for _, l := range lengths[:limit] {
		if l == v {
			return true
		}
	}
	return false
}

// hasAdjacent reports whether a is immediately followed by b within
// the first limit entries.
func hasAdjacent(lengths []int, a, b, limit int) bool {
	if limit > len(lengths) {
		limit = len(lengths)
	}
	for i := 0; i+1 < limit; i++ {
		if lengths[i] == a && lengths[i+1] == b {
			return true
		}
	}
	return false
}

// IsHeartbeat reports whether the packet is an Echo Dot keep-alive:
// an isolated 41-byte application-data packet. Heartbeat traffic is
// ignored by the spike detector (§IV-B1).
func IsHeartbeat(p *pcap.Packet) bool {
	return p.Len == trafficgen.HeartbeatLen && pcap.IsAppData(p)
}

// ClassifyNaive is the paper's strawman detector: every spike after an
// idle period is a voice command. It mistakes response spikes for
// commands (the motivation for phase classification in Fig. 3).
func ClassifyNaive(lengths []int) SpikeClass {
	if len(lengths) == 0 {
		return ClassUnknown
	}
	return ClassCommand
}
