package wireload

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"voiceguard/internal/emul"
)

// echoCommandWire is a marker-bearing Echo voice-command spike on the
// wire (activation packet, p-138 marker, upload records) — the record
// lengths the streaming recognizer classifies as a command.
var echoCommandWire = []int{277, 138, 90, 113, 131, 1100, 1200, 1150}

// endRecordLen is the wire length of the end-of-command record that
// makes the cloud answer once the command is released.
const endRecordLen = 60

// A stall-class flood follows its command with floodRecords upload
// records of floodBody bytes each (1,200 on the wire, about 28 KiB in
// all), so a few stall sessions exhaust a small budget within one
// flood.
const (
	floodRecords = 24
	floodBody    = 1190
)

// dial opens a speaker session and registers its class under the
// address the guard will see, before the first byte flows.
func (h *harness) dial(addr string, class sessionClass) (*emul.SpeakerClient, error) {
	sp, err := emul.DialSpeaker(addr)
	if err != nil {
		return nil, err
	}
	h.classes.Store(sp.LocalAddr(), class)
	return sp, nil
}

// dialAll opens one speaker per class to addr, with at most
// DialConcurrency dials in flight; a failed dial leaves its slot nil.
func (h *harness) dialAll(addr string, classes []sessionClass) []*emul.SpeakerClient {
	clients := make([]*emul.SpeakerClient, len(classes))
	sem := make(chan struct{}, h.cfg.DialConcurrency)
	var wg sync.WaitGroup
	for i, class := range classes {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, class sessionClass) {
			defer wg.Done()
			// A session that cannot connect is left out of the run; the
			// setup rate counts only the sessions that did.
			clients[i], _ = h.dial(addr, class)
			<-sem
		}(i, class)
	}
	wg.Wait()
	return clients
}

// command streams one recognizable voice command and awaits the
// cloud's answer, returning the round trip.
func command(sp *emul.SpeakerClient, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	if err := sp.SendPattern(echoCommandWire, emul.MsgCommand); err != nil {
		return 0, err
	}
	if err := sp.SendPattern([]int{endRecordLen}, emul.MsgEnd); err != nil {
		return 0, err
	}
	frame, err := sp.Await(timeout)
	if err == nil && frame.Type != emul.MsgResponse {
		err = fmt.Errorf("wireload: answer %q, want a response", frame.Type)
	}
	return time.Since(start), err
}

// awaitTimeout bounds one guarded command round trip: the decision
// draw, a possible hold-deadline resolution, and generous scheduling
// slack at thousands of runnable goroutines per core.
func (h *harness) awaitTimeout() time.Duration {
	return h.cfg.DecisionMean + h.cfg.DecisionJitter + h.cfg.HoldDeadline + 5*time.Second
}

// baseline measures the command round trip of one speaker per class
// straight against the cloud emulator — the no-guard latency floor.
// The command loops all run at once, matching the guarded phase's
// contention.
func (h *harness) baseline(cloudAddr string, classes []sessionClass) []time.Duration {
	rtts := make([][]time.Duration, len(classes))
	var wg sync.WaitGroup
	for i, sp := range h.dialAll(cloudAddr, classes) {
		if sp == nil {
			continue
		}
		wg.Add(1)
		go func(i int, sp *emul.SpeakerClient) {
			defer wg.Done()
			defer sp.Close()
			for b := 0; b < h.cfg.BaselineBursts; b++ {
				rtt, err := command(sp, h.awaitTimeout())
				if err != nil {
					return
				}
				rtts[i] = append(rtts[i], rtt)
			}
		}(i, sp)
	}
	wg.Wait()
	return slices.Concat(rtts...)
}

// session runs the command loop of the idx-th speaker, legit or drop
// class, appending each legit round trip to rtts, and returns the
// session it ended on.
func (h *harness) session(sp *emul.SpeakerClient, class sessionClass, idx int, guardAddr string, rtts *[]time.Duration) *emul.SpeakerClient {
	cfg := h.cfg
	// Stagger session phases across one command interval so the herd
	// does not fire every command on the same tick.
	if !h.pause(cfg.BurstEvery * time.Duration(idx) / time.Duration(cfg.TCPSessions)) {
		return sp
	}
	for b := 0; b < cfg.MeasureBursts; b++ {
		if class == classLegit {
			rtt, err := command(sp, h.awaitTimeout())
			if err != nil {
				return sp
			}
			*rtts = append(*rtts, rtt)
		} else {
			// The drop breaks the TLS record sequence; the cloud never
			// answers, so the speaker reconnects — session churn.
			_, _ = command(sp, cfg.DecisionMean+cfg.DecisionJitter+500*time.Millisecond)
			_ = sp.Close()
			nsp, err := h.dial(guardAddr, classDrop)
			if err != nil {
				return sp
			}
			h.reconnects.Add(1)
			sp = nsp
		}
		if !h.pause(cfg.BurstEvery) {
			return sp
		}
	}
	return sp
}

// stallFlood is one stall-class session during the stall window: each
// flood is a command whose decision wedges, followed by upload records
// and an end record that extend its hold, so held bytes pile against the global budget
// until backpressure stalls the pump and the speaker's writes block.
// A pause past the idle gap makes the next flood a new command (and a
// new wedged hold). Teardown closes the session, which ends a blocked
// write.
func (h *harness) stallFlood(sp *emul.SpeakerClient) {
	for {
		if err := sp.SendPattern(echoCommandWire, emul.MsgCommand); err != nil {
			return
		}
		if err := sp.SendCommand(floodRecords, floodBody); err != nil {
			return
		}
		if !h.pause(2 * h.cfg.IdleGap) {
			return
		}
	}
}

// pause waits d, reporting false if the run stopped first.
func (h *harness) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-h.stop:
		return false
	case <-t.C:
		return true
	}
}
