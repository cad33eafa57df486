package recognize

import "voiceguard/internal/pcap"

// SignatureLearner implements the paper's §VII future work: learning
// a cloud server's connection-establishment packet-level signature
// from observation, and re-learning it when firmware updates change
// it.
//
// The learner labels flows by DNS: destination addresses that a DNS
// response mapped to the tracked domain are known cloud endpoints.
// For every labelled connection it records the first packets'
// Application Data lengths; once enough examples agree, their longest
// common prefix becomes the signature. Examples that contradict the
// current signature evict the stale ones, so a changed fingerprint is
// re-learned after MinExamples fresh connections.
type SignatureLearner struct {
	SpeakerIP pcap.IPv4
	Domain    string

	// MinExamples connections must agree before a signature is
	// published (default 3).
	MinExamples int
	// MinLength is the shortest acceptable signature (default 5) —
	// shorter prefixes are too easy to collide with.
	MinLength int
	// MaxLength caps the recorded prefix (default 16, the length of
	// the published AVS signature).
	MaxLength int

	labelled map[pcap.IPv4]bool // addresses resolved from Domain
	flows    map[pcap.FlowID]*learnFlow
	lastFlow pcap.FlowID // most recent labelled flow, finalised when superseded
	examples [][]int
	sig      []int
}

// learnFlow records one labelled connection's opening lengths.
type learnFlow struct {
	lengths []int
	done    bool
}

// NewSignatureLearner returns a learner for the speaker and domain.
func NewSignatureLearner(speakerIP pcap.IPv4, domain string) *SignatureLearner {
	return &SignatureLearner{
		SpeakerIP:   speakerIP,
		Domain:      domain,
		MinExamples: 3,
		MinLength:   5,
		MaxLength:   16,
		labelled:    make(map[pcap.IPv4]bool),
		flows:       make(map[pcap.FlowID]*learnFlow),
	}
}

// Signature returns the currently learned signature, if any.
func (l *SignatureLearner) Signature() ([]int, bool) {
	if l.sig == nil {
		return nil, false
	}
	return append([]int(nil), l.sig...), true
}

// Observe feeds one captured packet and reports whether the learned
// signature changed. p is read only during the call.
func (l *SignatureLearner) Observe(p *pcap.Packet) bool {
	// A DNS response to another host would fall through to the TCP
	// test below and be ignored there, so only the speaker's replies
	// need parsing.
	if p.DstIP == l.SpeakerIP {
		if msg, ok := pcap.IsDNSResponse(p); ok {
			if msg.Name == l.Domain {
				// An accepted response always carries an A record.
				l.labelled[msg.Addr.As4()] = true
			}
			return false
		}
	}
	if p.SrcIP != l.SpeakerIP || p.Proto != pcap.TCP || !l.labelled[p.DstIP] {
		return false
	}
	if !pcap.IsAppData(p) {
		return false
	}
	key := p.Flow()
	f, ok := l.flows[key]
	changed := false
	if !ok {
		// A new labelled connection supersedes the previous one;
		// whatever that flow recorded is a complete example (the
		// common-prefix rule trims any trailing command traffic).
		changed = l.finalize(l.lastFlow)
		f = &learnFlow{}
		l.flows[key] = f
		l.lastFlow = key
	}
	if f.done {
		return changed
	}
	f.lengths = append(f.lengths, p.Len)
	if len(f.lengths) >= l.MaxLength {
		f.done = true
		if l.addExample(f.lengths) {
			changed = true
		}
	}
	return changed
}

// finalize completes a still-pending flow if it recorded enough
// lengths to be a useful example.
func (l *SignatureLearner) finalize(key pcap.FlowID) bool {
	f, ok := l.flows[key]
	if !ok || f.done {
		return false
	}
	f.done = true
	if len(f.lengths) < l.MinLength {
		return false
	}
	return l.addExample(f.lengths)
}

// addExample incorporates one completed connection prefix, evicting
// stale examples that contradict it, and relearns the signature.
func (l *SignatureLearner) addExample(lengths []int) bool {
	example := append([]int(nil), lengths...)

	// Evict examples incompatible with the newest observation: a
	// firmware update invalidates everything recorded before it.
	if len(l.examples) > 0 && prefixLen(l.examples[len(l.examples)-1], example) < l.MinLength {
		l.examples = nil
	}
	l.examples = append(l.examples, example)
	if len(l.examples) > l.MinExamples {
		l.examples = l.examples[len(l.examples)-l.MinExamples:]
	}
	if len(l.examples) < l.MinExamples {
		return false
	}

	// The signature is the longest common prefix of the retained
	// examples.
	candidate := append([]int(nil), l.examples[0]...)
	for _, e := range l.examples[1:] {
		n := prefixLen(candidate, e)
		candidate = candidate[:n]
	}
	if len(candidate) < l.MinLength {
		return false
	}
	if len(candidate) > l.MaxLength {
		candidate = candidate[:l.MaxLength]
	}
	if equalInts(candidate, l.sig) {
		return false
	}
	l.sig = candidate
	return true
}

// Forget drops completed flow state to bound memory.
func (l *SignatureLearner) Forget() {
	for key, f := range l.flows {
		if f.done {
			delete(l.flows, key)
		}
	}
}

// prefixLen returns the length of the common prefix of a and b.
func prefixLen(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// equalInts reports whether two int slices are identical.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AdaptiveTracker combines an AVSTracker with a SignatureLearner: the
// tracker's signature is refreshed whenever the learner publishes a
// new one, so cached reconnects keep being followed even after the
// fingerprint changes.
type AdaptiveTracker struct {
	*AVSTracker

	Learner *SignatureLearner
}

// NewAdaptiveTracker returns an adaptive tracker seeded with the given
// initial signature (which may be nil — it will be learned).
func NewAdaptiveTracker(speakerIP pcap.IPv4, domain string, initial []int) *AdaptiveTracker {
	return &AdaptiveTracker{
		AVSTracker: NewAVSTracker(speakerIP, domain, initial),
		Learner:    NewSignatureLearner(speakerIP, domain),
	}
}

// Observe feeds the packet to both the learner and the tracker,
// adopting newly learned signatures, and reports whether the tracked
// address changed. p is read only during the call.
func (t *AdaptiveTracker) Observe(p *pcap.Packet) bool {
	if t.Learner.Observe(p) {
		if sig, ok := t.Learner.Signature(); ok {
			t.AVSTracker.Signature = sig
			// Restart in-progress matching: old partial matches were
			// against the stale signature.
			t.AVSTracker.flows = make(map[pcap.FlowID]*sigFlow)
		}
	}
	return t.AVSTracker.Observe(p)
}
