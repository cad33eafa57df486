package proxy

import (
	"testing"
	"time"
)

// waitQueued polls until the session's hold queue holds n bytes.
func waitQueued(t *testing.T, s *Session, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for s.QueuedBytes() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued %d bytes, want %d", s.QueuedBytes(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The tap's per-connection state lives on its session: each
// connection sees only its own.
func TestTapState(t *testing.T) {
	chunks := make(chan int, 8)
	p := newProxy(t, startEchoServer(t), WithTap(func(s *Session, data []byte) {
		n, _ := s.TapState().(int)
		s.SetTapState(n + 1)
		chunks <- n + 1
	}))
	for i := 0; i < 2; i++ {
		client := dialClient(t, p.Addr())
		for want := 1; want <= 2; want++ {
			if _, err := client.Write([]byte("chunk")); err != nil {
				t.Fatal(err)
			}
			_ = readN(t, client, len("chunk"))
			if got := <-chunks; got != want {
				t.Fatalf("connection %d chunk %d: tap state %d", i, want, got)
			}
		}
	}
}

// ReleaseTo forwards the held bytes before a mark and keeps holding
// the rest, including bytes that arrive afterwards.
func TestReleaseToKeepsHoldingTheRest(t *testing.T) {
	marks := make(chan int, 4)
	p := newProxy(t, startEchoServer(t), WithTap(func(s *Session, data []byte) {
		mark, _ := s.HoldCommand(0)
		marks <- mark
	}))
	client := dialClient(t, p.Addr())
	if _, err := client.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	<-marks
	s := p.Sessions()[0]
	waitQueued(t, s, len("first"))
	if _, err := client.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	second := <-marks
	if second != len("first") {
		t.Fatalf("second mark = %d, want %d", second, len("first"))
	}
	waitQueued(t, s, len("firstsecond"))

	if err := s.ReleaseTo(second); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, client, len("first")); string(got) != "first" {
		t.Fatalf("released %q, want %q", got, "first")
	}
	if !s.Holding() || s.QueuedBytes() != len("second") {
		t.Fatalf("after ReleaseTo: holding %v, queued %d", s.Holding(), s.QueuedBytes())
	}
	if _, err := client.Write([]byte("third")); err != nil {
		t.Fatal(err)
	}
	<-marks
	waitQueued(t, s, len("secondthird"))
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, client, len("secondthird")); string(got) != "secondthird" {
		t.Fatalf("released %q, want %q", got, "secondthird")
	}
}

// A verdict that arrives after the hold deadline already resolved the
// hold is not a second outcome: holds stay equal to releases + drops.
func TestLateVerdictAfterDeadlineCountedOnce(t *testing.T) {
	p := newProxy(t, startEchoServer(t),
		WithTap(func(s *Session, data []byte) { s.Hold() }),
		WithHoldDeadline(50*time.Millisecond, DeadlineDrop))
	holds, releases, drops := mHolds.Value(), mReleases.Value(), mDrops.Value()

	s := holdOneChunk(t, p, []byte("wedged"))
	deadline := time.Now().Add(3 * time.Second)
	for s.Holding() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Holding() {
		t.Fatal("hold deadline never fired")
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if n := s.Drop(); n != 0 {
		t.Fatalf("late drop discarded %d bytes", n)
	}
	if err := s.ReleaseTo(1 << 20); err != nil {
		t.Fatal(err)
	}

	dh, dr, dd := mHolds.Value()-holds, mReleases.Value()-releases, mDrops.Value()-drops
	if dh != 1 || dr+dd != dh {
		t.Fatalf("holds %d, releases %d, drops %d: want one hold resolved once", dh, dr, dd)
	}
}
