package wireload

import (
	"fmt"
	"net"
	"sync"
	"time"

	"voiceguard/internal/proxy"
	"voiceguard/internal/rng"
)

// udpLoad is the Google Home Mini UDP class: speaker sockets through
// a UDPForwarder on the shared hold budget to a one-socket echo sink,
// with a cycler playing the verdicts.
type udpLoad struct {
	sink *net.UDPConn
	fwd  *proxy.UDPForwarder
	wg   sync.WaitGroup
}

// startUDP starts the echo sink, the forwarder in front of it, up to
// n speaker sockets and the verdict cycler, all streaming until the
// run stops, and reports how many sockets opened.
func (h *harness) startUDP(budget *proxy.HoldBudget, n int) (*udpLoad, int, error) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, 0, fmt.Errorf("wireload: udp sink: %w", err)
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, addr, err := sink.ReadFromUDP(buf)
			if err != nil {
				return
			}
			_, _ = sink.WriteToUDP(buf[:n], addr)
		}
	}()
	fwd, err := proxy.NewUDP("127.0.0.1:0", sink.LocalAddr().String(), nil)
	if err != nil {
		_ = sink.Close()
		return nil, 0, err
	}
	fwd.SetHoldBudget(budget)
	u := &udpLoad{sink: sink, fwd: fwd}
	u.wg.Add(1)
	go h.udpCycler(fwd, rng.New(h.cfg.Seed).Split("udpverdict"), &u.wg)
	opened := 0
	for ; opened < n; opened++ {
		conn, err := net.Dial("udp", fwd.Addr())
		if err != nil {
			break
		}
		u.wg.Add(1)
		go h.udpClient(conn, &u.wg)
	}
	return u, opened, nil
}

// close waits for the stopped streams, closes the forwarder and the
// sink, and returns the datagrams the budget shed.
func (u *udpLoad) close() int {
	u.wg.Wait()
	shed := u.fwd.BudgetShed()
	_ = u.fwd.Close()
	_ = u.sink.Close()
	return shed
}

// udpClient sends one GHM-profile speaker's datagram stream and reads
// back whatever the forwarder lets through. Held and shed datagrams
// simply time out — loss is the UDP plane's expected backpressure.
func (h *harness) udpClient(conn net.Conn, wg *sync.WaitGroup) {
	defer wg.Done()
	defer conn.Close()
	payload := make([]byte, 256)
	buf := make([]byte, 2048)
	for {
		_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := conn.Write(payload); err != nil {
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, _ = conn.Read(buf)
		if !h.pause(100 * time.Millisecond) {
			return
		}
	}
}

// udpCycler drives the forwarder through hold → decide → verdict
// cycles, the UDP analogue of the per-command adjudication.
func (h *harness) udpCycler(fwd *proxy.UDPForwarder, src *rng.Source, wg *sync.WaitGroup) {
	defer wg.Done()
	period := max(4*h.cfg.IdleGap, 200*time.Millisecond)
	for {
		if !h.pause(period) {
			return
		}
		fwd.Hold()
		// On stop, the forwarder's Close resets the queue and credits
		// the budget.
		if !h.pause(h.cfg.DecisionMean) {
			return
		}
		if src.Bool(h.cfg.DropFrac) {
			fwd.Drop()
		} else {
			_ = fwd.Release()
		}
	}
}
