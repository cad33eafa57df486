package scenario

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"voiceguard/internal/emul"
	"voiceguard/internal/proxy"
	"voiceguard/internal/simtime"
)

// Fig4Case is one of Figure 4's three traffic-handling cases, run on
// real sockets.
type Fig4Case struct {
	Name          string
	ResponseAfter time.Duration // first byte sent → server response received
	SessionClosed bool          // TLS session terminated (case III)
	HeldBytes     int           // bytes that passed through the hold queue
	DroppedBytes  int
}

// HoldReleaseDrop runs Figure 4's three cases over loopback:
//
//	I   — no proxy: the command reaches the cloud immediately.
//	II  — proxy holds the command for holdFor, then releases it; the
//	      session survives and the response arrives after the hold.
//	III — proxy holds and then drops the command; the next record's
//	      sequence number no longer matches and the cloud closes the
//	      session.
//
// Latencies are measured on the wall clock (simtime.Real): unlike the
// trace-plane studies this experiment exercises real sockets, so wall
// time is the measurement, not a determinism leak.
func HoldReleaseDrop(holdFor time.Duration) ([]Fig4Case, error) {
	clock := simtime.Real{}
	caseI, err := runDirectCase(clock)
	if err != nil {
		return nil, fmt.Errorf("case I: %w", err)
	}
	caseII, err := runProxyCase(clock, "II: hold and release", holdFor, false)
	if err != nil {
		return nil, fmt.Errorf("case II: %w", err)
	}
	caseIII, err := runProxyCase(clock, "III: hold and drop", holdFor, true)
	if err != nil {
		return nil, fmt.Errorf("case III: %w", err)
	}
	return []Fig4Case{caseI, caseII, caseIII}, nil
}

// runDirectCase measures the no-proxy baseline.
func runDirectCase(clock simtime.Clock) (Fig4Case, error) {
	srv, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		return Fig4Case{}, err
	}
	defer srv.Close()

	client, err := emul.DialSpeaker(srv.Addr())
	if err != nil {
		return Fig4Case{}, err
	}
	defer client.Close()

	start := clock.Now()
	if err := client.SendCommand(3, 800); err != nil {
		return Fig4Case{}, err
	}
	if _, err := client.Await(3 * time.Second); err != nil {
		return Fig4Case{}, err
	}
	return Fig4Case{
		Name:          "I: no proxy",
		ResponseAfter: clock.Now().Sub(start),
	}, nil
}

// runProxyCase measures a held command that is later released or
// dropped.
func runProxyCase(clock simtime.Clock, name string, holdFor time.Duration, drop bool) (Fig4Case, error) {
	srv, err := emul.NewCloudServer("127.0.0.1:0")
	if err != nil {
		return Fig4Case{}, err
	}
	defer srv.Close()

	held := make(chan *proxy.Session, 1)
	var once sync.Once
	p, err := proxy.NewTCP("127.0.0.1:0",
		func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", srv.Addr())
		},
		proxy.WithTap(func(s *proxy.Session, data []byte) {
			once.Do(func() {
				s.Hold()
				held <- s
			})
		}))
	if err != nil {
		return Fig4Case{}, err
	}
	defer p.Close()

	client, err := emul.DialSpeaker(p.Addr())
	if err != nil {
		return Fig4Case{}, err
	}
	defer client.Close()

	start := clock.Now()
	if err := client.SendCommand(3, 800); err != nil {
		return Fig4Case{}, err
	}
	var sess *proxy.Session
	select {
	case sess = <-held:
	//vglint:allow simclock real-socket guard: bounds the wait for loopback proxy I/O, not simulated time
	case <-time.After(3 * time.Second):
		return Fig4Case{}, fmt.Errorf("hold never engaged")
	}
	// The hold itself elapses on real sockets; a simulated clock
	// cannot stand in for the kernel's TCP keep-alive behaviour.
	//vglint:allow simclock real-socket hold: the proxy keep-alive survival under real elapsed time is the experiment
	time.Sleep(holdFor)

	out := Fig4Case{Name: name}
	if drop {
		out.DroppedBytes = sess.Drop()
		// The speaker keeps talking; the broken record sequence makes
		// the cloud alert and close.
		if err := client.SendHeartbeat(); err != nil {
			return Fig4Case{}, err
		}
		_, err := client.Await(3 * time.Second)
		out.SessionClosed = errors.Is(err, emul.ErrSessionClosed)
		if !out.SessionClosed && err != nil {
			out.SessionClosed = true // connection reset also counts as terminated
		}
		out.HeldBytes = sess.HeldTotal()
		return out, nil
	}

	if err := sess.Release(); err != nil {
		return Fig4Case{}, err
	}
	if _, err := client.Await(3 * time.Second); err != nil {
		return Fig4Case{}, err
	}
	out.ResponseAfter = clock.Now().Sub(start)
	out.HeldBytes = sess.HeldTotal()
	return out, nil
}
