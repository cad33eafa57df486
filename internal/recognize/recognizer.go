package recognize

import (
	"slices"
	"time"

	"voiceguard/internal/metrics"
	"voiceguard/internal/pcap"
	"voiceguard/internal/trace"
	"voiceguard/internal/trafficgen"
)

// Recognition metrics: how each spike classification was reached.
// Phase-1 markers identify command spikes, phase-2 markers response
// spikes (§IV-B1); the fallback counter tracks command spikes caught
// only by the fixed packet-length patterns.
const (
	metricPhase1Markers   = "recognize_phase1_marker_total"
	metricPhase2Markers   = "recognize_phase2_marker_total"
	metricFallbackMatches = "recognize_fallback_match_total"
)

var (
	mPhase1Markers   = metrics.NewCounter(metricPhase1Markers)
	mPhase2Markers   = metrics.NewCounter(metricPhase2Markers)
	mFallbackMatches = metrics.NewCounter(metricFallbackMatches)
)

// Kind selects the per-speaker recognition procedure.
type Kind int

// Speaker kinds.
const (
	KindEcho Kind = iota + 1
	KindGHM
)

// Action is the streaming recognizer's verdict after each packet.
type Action int

// Streaming actions.
const (
	// ActionNone: the packet is not part of the spike being held
	// (another host's, a DNS message, a heartbeat) and changes nothing.
	ActionNone Action = iota
	// ActionHold: a spike began on the voice flow; hold its traffic
	// while classification completes.
	ActionHold
	// ActionCommand: the held spike is a voice command; query the
	// Decision Module.
	ActionCommand
	// ActionRelease: the held spike is not a voice command; release
	// it immediately.
	ActionRelease
	// ActionExtend: the packet joined the spike being held without
	// settling it; it is held with the spike and pushes the spike's
	// idle deadline out.
	ActionExtend
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionHold:
		return "hold"
	case ActionCommand:
		return "command"
	case ActionRelease:
		return "release"
	case ActionExtend:
		return "extend"
	default:
		return "invalid"
	}
}

// Recognizer consumes the speaker's packet stream and decides, packet
// by packet, when a voice command is being transmitted. The Echo
// procedure watches the tracked AVS flow and applies the phase
// classifiers; the Google Home Mini procedure treats any new spike on
// a cloud flow as a command (§IV-B1).
type Recognizer struct {
	Kind      Kind
	SpeakerIP pcap.IPv4
	Tracker   *AVSTracker
	IdleGap   time.Duration

	// Tracer receives marker events for the spike being classified
	// (nil uses trace.Default).
	Tracer *trace.Tracer

	// head holds the lengths of the spike's first packets, the only
	// ones classification reads; n counts the spike's packets.
	head      [commandWindow]int
	n         int
	lastVoice time.Time
	decided   bool
	cmd       trace.CommandID
}

// BindCommand attaches the command ID of the spike currently being
// classified, so the recognizer's marker events correlate with the
// guard's spans. The guard calls this when it starts holding a spike.
func (r *Recognizer) BindCommand(id trace.CommandID) { r.cmd = id }

// traceMarker records one instantaneous classification-evidence event
// for the bound command.
func (r *Recognizer) traceMarker(name string, at time.Time) {
	trace.Or(r.Tracer).Record(trace.Event(r.cmd, trace.StageRecognize, name, at,
		trace.Int("packets", r.n)))
}

// add counts p into the current spike, or into a new one after an idle
// gap, and reports whether it started one. Only the head's lengths are
// kept.
func (r *Recognizer) add(p *pcap.Packet) (newSpike bool) {
	if r.n == 0 || p.Time.Sub(r.lastVoice) >= r.IdleGap {
		r.n, newSpike = 0, true
	}
	r.lastVoice = p.Time
	if r.n < commandWindow {
		r.head[r.n] = p.Len
	}
	r.n++
	return newSpike
}

// NewEcho returns a streaming recognizer for an Amazon Echo Dot.
func NewEcho(speakerIP pcap.IPv4) *Recognizer {
	return &Recognizer{
		Kind:      KindEcho,
		SpeakerIP: speakerIP,
		Tracker:   NewAVSTracker(speakerIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature),
		IdleGap:   pcap.DefaultIdleGap,
	}
}

// Reset forgets the spike being classified and its bound command, but
// keeps the tracked server: the next voice packet starts a new spike.
func (r *Recognizer) Reset() {
	r.n, r.decided, r.cmd = 0, false, 0
}

// NewGHM returns a streaming recognizer for a Google Home Mini.
func NewGHM(speakerIP pcap.IPv4) *Recognizer {
	return &Recognizer{
		Kind:      KindGHM,
		SpeakerIP: speakerIP,
		IdleGap:   pcap.DefaultIdleGap,
	}
}

// Feed processes one captured packet and returns the traffic-handling
// action it implies. p is read only during the call; the recognizer
// keeps only its length.
func (r *Recognizer) Feed(p *pcap.Packet) Action {
	if r.Tracker != nil {
		//vglint:allow hotalloc DNS parsing allocates the name string, but only runs on the rare resolver packets behind Observe's port check, never on the per-packet voice path
		r.Tracker.Observe(p)
	}
	switch r.Kind {
	case KindGHM:
		return r.feedGHM(p)
	default:
		return r.feedEcho(p)
	}
}

// feedEcho handles the Echo Dot's long-lived AVS connection.
func (r *Recognizer) feedEcho(p *pcap.Packet) Action {
	if !r.isVoiceFlow(p) {
		return ActionNone
	}
	if IsHeartbeat(p) {
		// Keep-alives neither start nor extend a spike.
		return ActionNone
	}

	if r.add(p) {
		r.decided = false
		return ActionHold
	}
	if r.decided {
		return ActionExtend
	}
	return r.tryDecide()
}

// tryDecide attempts a classification of the spike head. It runs only
// while the spike is undecided, which it never is past commandWindow
// packets, so the head holds every length it reads. Response markers
// are therefore looked for in the 5-packet head too (the paper allows
// seven): a pair at the 6th/7th packet comes after the spike has
// already been released for lacking command markers.
func (r *Recognizer) tryDecide() Action {
	lengths := r.head[:min(r.n, commandWindow)]
	// Response markers can be spotted as soon as they appear.
	if hasAdjacent(lengths, trafficgen.P77, trafficgen.P33) {
		mPhase2Markers.Inc()
		r.traceMarker("phase2_marker", r.lastVoice)
		r.decided = true
		return ActionRelease
	}
	if slices.Contains(lengths, trafficgen.P138) || slices.Contains(lengths, trafficgen.P75) {
		mPhase1Markers.Inc()
		r.traceMarker("phase1_marker", r.lastVoice)
		r.decided = true
		return ActionCommand
	}
	if len(lengths) < commandWindow {
		return ActionExtend // not enough evidence yet
	}
	if matchesCommandFallback(lengths) {
		mFallbackMatches.Inc()
		r.traceMarker("fallback_match", r.lastVoice)
		r.decided = true
		return ActionCommand
	}
	// Five packets with no command evidence: command markers can no
	// longer appear, so the spike is not a command.
	r.decided = true
	return ActionRelease
}

// feedGHM handles the Google Home Mini's on-demand connections.
func (r *Recognizer) feedGHM(p *pcap.Packet) Action {
	if p.SrcIP != r.SpeakerIP || p.DstPort != trafficgen.TLSPort {
		return ActionNone
	}
	if r.add(p) {
		r.decided = true
		// Any traffic spike after an idle period is a voice command.
		return ActionCommand
	}
	return ActionExtend
}

// EndSpike finalises the current spike when the guard's idle timer
// fires. An undecided spike (shorter than the classification window)
// is released.
func (r *Recognizer) EndSpike() Action {
	if r.n == 0 || r.decided {
		return ActionNone
	}
	r.decided = true
	return ActionRelease
}

// isVoiceFlow reports whether the packet belongs to the
// speaker-to-cloud voice flow (speaker-originated TCP application
// data to the tracked AVS address).
func (r *Recognizer) isVoiceFlow(p *pcap.Packet) bool {
	if p.SrcIP != r.SpeakerIP || p.Proto != pcap.TCP {
		return false
	}
	addr, ok := r.Tracker.CurrentIP()
	if !ok || p.DstIP != addr {
		return false
	}
	return pcap.IsAppData(p)
}
