package recognize

import (
	"net/netip"

	"voiceguard/internal/metrics"
	"voiceguard/internal/pcap"
)

// Tracker metrics: how the cloud server's address was (re)learned.
const (
	metricTrackerDNSUpdates = "recognize_tracker_dns_updates_total"
	metricTrackerSigMatches = "recognize_tracker_signature_matches_total"
)

var (
	mTrackerDNSUpdates = metrics.NewCounter(metricTrackerDNSUpdates)
	mTrackerSigMatches = metrics.NewCounter(metricTrackerSigMatches)
)

// AVSTracker maintains the current IP address of the speaker's cloud
// voice server. It learns addresses two ways:
//
//   - from DNS responses answering the tracked domain, and
//   - from packet-level connection signatures: when a new
//     speaker-originated flow's first Application Data lengths match
//     the known connect signature, the flow's destination is the
//     cloud server even if no DNS exchange was observed (§IV-B1's
//     reconnection case).
//
// Either mechanism can be disabled to reproduce the paper's ablation
// (DNS-only tracking loses the server after a cached reconnect).
type AVSTracker struct {
	SpeakerIP pcap.IPv4
	Domain    string
	Signature []int

	UseDNS       bool
	UseSignature bool

	current pcap.IPv4
	ok      bool
	flows   map[pcap.FlowID]*sigFlow
}

// sigFlow is the per-flow signature matching state.
type sigFlow struct {
	matched int
	dead    bool
}

// NewAVSTracker returns a tracker for the speaker's cloud server with
// both mechanisms enabled.
func NewAVSTracker(speakerIP pcap.IPv4, domain string, signature []int) *AVSTracker {
	return &AVSTracker{
		SpeakerIP:    speakerIP,
		Domain:       domain,
		Signature:    append([]int(nil), signature...),
		UseDNS:       true,
		UseSignature: true,
		flows:        make(map[pcap.FlowID]*sigFlow),
	}
}

// Current returns the tracked server address, if known.
func (t *AVSTracker) Current() (netip.Addr, bool) {
	if !t.ok {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4(t.current), true
}

// CurrentIP returns the tracked server address as a packet address,
// if known: the per-packet flow check compares it with DstIP.
func (t *AVSTracker) CurrentIP() (pcap.IPv4, bool) { return t.current, t.ok }

// ForceAddress pins the tracked server address. The wire-plane guard
// sits inline between one speaker and its cloud endpoint, so the
// server's identity is known by construction rather than learned from
// DNS or signatures.
func (t *AVSTracker) ForceAddress(addr pcap.IPv4) { t.set(addr) }

// Observe feeds one captured packet to the tracker and reports
// whether the tracked address changed. p is read only during the call.
func (t *AVSTracker) Observe(p *pcap.Packet) bool {
	// The destination test comes first: it spares parsing every other
	// host's DNS replies.
	if t.UseDNS && p.DstIP == t.SpeakerIP {
		if msg, ok := pcap.IsDNSResponse(p); ok && msg.Response && msg.Name == t.Domain {
			// An accepted response always carries an A record.
			if t.set(msg.Addr.As4()) {
				mTrackerDNSUpdates.Inc()
				return true
			}
			return false
		}
	}
	if t.UseSignature && len(t.Signature) > 0 {
		if p.SrcIP == t.SpeakerIP && p.Proto == pcap.TCP && pcap.IsAppData(p) {
			return t.observeSignature(p)
		}
	}
	return false
}

// observeSignature advances per-flow signature matching.
func (t *AVSTracker) observeSignature(p *pcap.Packet) bool {
	key := p.Flow()
	f, exists := t.flows[key]
	if !exists {
		f = &sigFlow{}
		t.flows[key] = f
	}
	if f.dead {
		return false
	}
	if p.Len != t.Signature[f.matched] {
		f.dead = true
		return false
	}
	f.matched++
	if f.matched < len(t.Signature) {
		return false
	}
	// Full signature observed: this flow talks to the cloud server.
	f.dead = true // stop matching further traffic on this flow
	mTrackerSigMatches.Inc()
	return t.set(key.DstIP)
}

// set updates the tracked address.
func (t *AVSTracker) set(addr pcap.IPv4) bool {
	if t.ok && t.current == addr {
		return false
	}
	t.current = addr
	t.ok = true
	return true
}

// Forget drops completed or dead flow state to bound memory on
// long-running captures. The tracker keeps only live, partially
// matched flows.
func (t *AVSTracker) Forget() {
	for key, f := range t.flows {
		if f.dead {
			delete(t.flows, key)
		}
	}
}
