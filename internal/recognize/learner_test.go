package recognize

import (
	"testing"
	"time"

	"voiceguard/internal/pcap"
	"voiceguard/internal/rng"
	"voiceguard/internal/trafficgen"
)

// feedLearner runs packets through the learner and returns whether
// the signature changed at any point.
func feedLearner(l *SignatureLearner, packets []pcap.Packet) bool {
	changed := false
	for _, p := range packets {
		if l.Observe(p) {
			changed = true
		}
	}
	return changed
}

// observeConnections generates n DNS-labelled reconnects and feeds
// them through the learner.
func observeConnections(t *testing.T, l *SignatureLearner, e *trafficgen.Echo, n int, start time.Time) time.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		packets := e.Reconnect(start, true /* with DNS, so the flow is labelled */)
		feedLearner(l, packets)
		start = start.Add(time.Minute)
	}
	return start
}

func TestLearnerLearnsPublishedSignature(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(1))
	l := NewSignatureLearner(trafficgen.EchoIP, trafficgen.AVSDomain)
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	feedLearner(l, boot)
	observeConnections(t, l, e, 3, t0.Add(time.Hour))

	sig, ok := l.Signature()
	if !ok {
		t.Fatal("learner published nothing after 4 labelled connections")
	}
	want := trafficgen.AVSConnectSignature
	if len(sig) < l.MinLength {
		t.Fatalf("signature too short: %v", sig)
	}
	for i := range sig {
		if sig[i] != want[i] {
			t.Fatalf("learned %v, want prefix of %v", sig, want)
		}
	}
}

func TestLearnerNeedsMinimumExamples(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(2))
	l := NewSignatureLearner(trafficgen.EchoIP, trafficgen.AVSDomain)
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	feedLearner(l, boot)
	observeConnections(t, l, e, 1, t0.Add(time.Hour)) // 2 examples total
	if _, ok := l.Signature(); ok {
		t.Fatal("learner published with fewer than MinExamples connections")
	}
}

func TestLearnerIgnoresUnlabelledFlows(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(3))
	l := NewSignatureLearner(trafficgen.EchoIP, trafficgen.AVSDomain)
	// Reconnects without DNS: the destination is never labelled.
	at := t0
	for i := 0; i < 5; i++ {
		packets := e.Reconnect(at, false)
		feedLearner(l, packets)
		at = at.Add(time.Minute)
	}
	if _, ok := l.Signature(); ok {
		t.Fatal("learner published from unlabelled flows")
	}
}

func TestLearnerRelearnsAfterFirmwareUpdate(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(4))
	l := NewSignatureLearner(trafficgen.EchoIP, trafficgen.AVSDomain)
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	feedLearner(l, boot)
	at := observeConnections(t, l, e, 3, t0.Add(time.Hour))
	if _, ok := l.Signature(); !ok {
		t.Fatal("initial signature not learned")
	}

	// Firmware update changes the fingerprint. Convergence needs
	// MinExamples completed connections plus one more to finalise the
	// last of them.
	updated := []int{88, 42, 700, 140, 77, 140, 200, 81}
	e.SetConnectSignature(updated)
	at = observeConnections(t, l, e, 4, at)

	sig, ok := l.Signature()
	if !ok {
		t.Fatal("signature lost after firmware update")
	}
	for i := range sig {
		if sig[i] != updated[i] {
			t.Fatalf("relearned %v, want prefix of %v", sig, updated)
		}
	}
}

func TestLearnerForget(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(5))
	l := NewSignatureLearner(trafficgen.EchoIP, trafficgen.AVSDomain)
	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	feedLearner(l, boot)
	observeConnections(t, l, e, 3, t0.Add(time.Hour))
	l.Forget()
	for _, f := range l.flows {
		if f.done {
			t.Fatal("Forget retained a completed flow")
		}
	}
}

func TestAdaptiveTrackerSurvivesSignatureChange(t *testing.T) {
	e := trafficgen.NewEcho(rng.New(6))
	tr := NewAdaptiveTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)

	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range boot {
		tr.Observe(p)
	}

	// Firmware update; several DNS-visible reconnects let the learner
	// pick up the new fingerprint.
	updated := []int{88, 42, 700, 140, 77, 140, 200, 81, 99, 12}
	e.SetConnectSignature(updated)
	at := t0.Add(time.Hour)
	for i := 0; i < 4; i++ {
		packets := e.Reconnect(at, true)
		for _, p := range packets {
			tr.Observe(p)
		}
		at = at.Add(time.Minute)
	}

	// Now a cached reconnect with no DNS: only the relearned
	// signature can follow it.
	packets := e.Reconnect(at, false)
	for _, p := range packets {
		tr.Observe(p)
	}
	addr, ok := tr.Current()
	if !ok || addr != e.AVSAddr() {
		t.Fatalf("adaptive tracker at %v (%v), want %v", addr, ok, e.AVSAddr())
	}
}

func TestStaticTrackerLosesChangedSignature(t *testing.T) {
	// The counterpart: a static-signature tracker cannot follow
	// cached reconnects once the fingerprint changed.
	e := trafficgen.NewEcho(rng.New(7))
	tr := NewAVSTracker(trafficgen.EchoIP, trafficgen.AVSDomain, trafficgen.AVSConnectSignature)
	tr.UseDNS = false // isolate signature matching

	boot, err := e.Boot(t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range boot {
		tr.Observe(p)
	}
	old, _ := tr.Current()

	e.SetConnectSignature([]int{88, 42, 700, 140, 77, 140, 200, 81})
	packets := e.Reconnect(t0.Add(time.Hour), false)
	for _, p := range packets {
		tr.Observe(p)
	}
	if addr, _ := tr.Current(); addr != old {
		t.Fatal("static tracker unexpectedly followed a changed signature")
	}
}

func TestPrefixLenAndEqualInts(t *testing.T) {
	if prefixLen([]int{1, 2, 3}, []int{1, 2, 4}) != 2 {
		t.Fatal("prefixLen wrong")
	}
	if prefixLen([]int{1, 2}, []int{1, 2, 3}) != 2 {
		t.Fatal("prefixLen with shorter slice wrong")
	}
	if !equalInts(nil, nil) || equalInts([]int{1}, nil) || equalInts([]int{1}, []int{2}) {
		t.Fatal("equalInts wrong")
	}
}
