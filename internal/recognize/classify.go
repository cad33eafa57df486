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

// commandWindow is the spike head the Echo rule reads (§IV-B1):
// command markers appear within the first five packets, so a spike is
// decided by its fifth.
const commandWindow = 5

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

// hasAdjacent reports whether a is immediately followed by b.
func hasAdjacent(lengths []int, a, b int) bool {
	for i := 0; i+1 < len(lengths); i++ {
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
