package decision

import (
	"testing"

	"voiceguard/internal/mobility"
)

// Reading the floor from a recorded stair trace allocates nothing: the
// fit uses the precomputed x values, and the k-NN vote sorts its
// candidates on the stack.
func TestStairTraceClassificationAllocatesNothing(t *testing.T) {
	f := newHouseFixture(t, 9)
	classifier := trainHouseClassifier(t, f)
	path, err := mobility.NewRoutePath(f.plan.Routes["up"], mobility.DefaultSpeed)
	if err != nil {
		t.Fatal(err)
	}
	var trace [TraceSamples]float64
	RecordTraceInto(&trace, f.scanner, f.adv, path, 0)
	var got TraceClass
	allocs := testing.AllocsPerRun(100, func() {
		feat, err := ExtractFeatures(trace[:])
		if err != nil {
			t.Fatal(err)
		}
		got = classifier.Classify(feat)
	})
	if got != TraceUp {
		t.Fatalf("up-stairs trace classified %v", got)
	}
	if allocs != 0 {
		t.Fatalf("ExtractFeatures + Classify allocated %v times", allocs)
	}
}
