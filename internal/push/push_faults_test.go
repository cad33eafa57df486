package push

import (
	"testing"
	"time"

	"voiceguard/internal/faults"
	"voiceguard/internal/rng"
)

// withFaults installs a fault plan built from p on the fixture broker.
func (f *fixture) withFaults(p faults.Profile) {
	f.broker.SetFaults(faults.NewPlan(p, f.clock, rng.New(17).Split("faults")))
}

// A clean send resolves its group immediately: Done fires once with
// every target accepted.
func TestDoneReportsAcceptedOutcome(t *testing.T) {
	f := setup(t)
	var outcomes []Outcome
	err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(Reply) {}, RequestOpts{
		Done: func(o Outcome) { outcomes = append(outcomes, o) },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if len(outcomes) != 1 {
		t.Fatalf("Done called %d times, want 1", len(outcomes))
	}
	want := Outcome{Requested: 1, Accepted: 1}
	if outcomes[0] != want {
		t.Fatalf("outcome = %+v, want %+v", outcomes[0], want)
	}
}

// A broker outage at send time is observable: the send is retried
// with exponential backoff and succeeds once the window closes.
func TestRetryBackoffRecoversFromOutage(t *testing.T) {
	f := setup(t)
	// Outage covers the first second after the epoch; retries at
	// +400ms (still down) and +1.2s (recovered).
	f.withFaults(faults.Profile{OutageEvery: time.Hour, OutageFor: time.Second})
	replies := 0
	var out Outcome
	err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(Reply) { replies++ }, RequestOpts{
		Done: func(o Outcome) { out = o },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if replies != 1 {
		t.Fatalf("replies = %d, want 1 after retry recovery", replies)
	}
	if out != (Outcome{Requested: 1, Accepted: 1}) {
		t.Fatalf("outcome = %+v, want the send accepted after retries", out)
	}
}

// Sends that keep failing stop at the re-push cap and report the
// target failed — the observable signal the Decision Module turns
// into a path-dead verdict.
func TestSendFailsAfterRetryCap(t *testing.T) {
	f := setup(t)
	f.withFaults(faults.Profile{Drop: 1.0})
	var (
		doneAt time.Time
		out    Outcome
		calls  int
	)
	err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(Reply) {
		t.Error("reply delivered despite every send dropping")
	}, RequestOpts{
		Done: func(o Outcome) { calls++; out = o; doneAt = f.clock.Now() },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if calls != 1 {
		t.Fatalf("Done called %d times, want 1", calls)
	}
	if out != (Outcome{Requested: 1, Failed: 1}) {
		t.Fatalf("outcome = %+v, want the send failed", out)
	}
	// Backoff 400ms << {0,1,2}: the final failure lands at +2.8s.
	if want := epoch.Add(2800 * time.Millisecond); !doneAt.Equal(want) {
		t.Fatalf("group resolved at %v, want %v (full backoff ladder)", doneAt, want)
	}
}

// A duplicate fault delivers the same measurement twice — the
// at-least-once behaviour downstream dedupe must absorb.
func TestDuplicateFaultDeliversTwice(t *testing.T) {
	f := setup(t)
	f.withFaults(faults.Profile{Duplicate: 1.0})
	replies := 0
	if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(Reply) { replies++ }, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if replies != 2 {
		t.Fatalf("replies = %d, want 2 under a 100%% duplicate fault", replies)
	}
}

// A corruption fault flags the reply so the Decision Module can
// refuse to let it vote.
func TestCorruptFaultFlagsReply(t *testing.T) {
	f := setup(t)
	f.withFaults(faults.Profile{Corrupt: 1.0})
	var got []Reply
	if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(r Reply) { got = append(got, r) }, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if len(got) != 1 || !got[0].Corrupt {
		t.Fatalf("replies = %+v, want one corrupt reply", got)
	}
}

// An offline window black-holes like a powered-off phone: the push is
// accepted (unobservable failure) and no reply ever arrives.
func TestOfflineWindowBlackHoles(t *testing.T) {
	f := setup(t)
	f.withFaults(faults.Profile{OfflineEvery: time.Hour, OfflineFor: 10 * time.Minute})
	var out Outcome
	replies := 0
	err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(Reply) { replies++ }, RequestOpts{
		Done: func(o Outcome) { out = o },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(30 * time.Minute)
	if replies != 0 {
		t.Fatalf("replies = %d, want 0 inside the offline window", replies)
	}
	if out != (Outcome{Requested: 1, Accepted: 1}) {
		t.Fatalf("outcome = %+v, want accepted (the black hole is unobservable)", out)
	}
}

// A delay spike shifts delivery past the normal model envelope but
// the reply still arrives.
func TestDelaySpikeShiftsDelivery(t *testing.T) {
	f := setup(t)
	f.withFaults(faults.Profile{DelayProb: 1.0, Delay: 10 * time.Second})
	var at time.Time
	if err := f.broker.RequestWith([]string{"pixel5"}, f.adv, func(r Reply) { at = r.At }, RequestOpts{}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	if at.IsZero() {
		t.Fatal("no reply under a delay-spike fault")
	}
	if d := at.Sub(epoch); d < 10*time.Second {
		t.Fatalf("reply at +%v, want at least the 10s spike", d)
	}
}
