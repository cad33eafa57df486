package scenario

import (
	"time"

	"voiceguard/internal/trafficgen"
)

// This file is the event-driven day core. A day's command slots live
// on a binary min-heap keyed (time, sequence) — the agenda — and the
// day executes by repeatedly popping the earliest event and jumping
// the simulated clock straight to it. Sub-event machinery (push wake-ups, retries, fault windows,
// idle timers, dispatch delays) already runs on simtime.Sim's own
// heap, so the two heaps together make the whole run discrete-event.
//
// Determinism rules (pinned by TestEventLoopMatchesReference's golden
// outcome digests):
//   - Agenda ordering is (at, seq); seq is assigned in slot-draw order,
//     so ties pop FIFO.
//   - RNG draw order is untouched: slot times are drawn from daySrc in
//     the same sequence before any event executes, and command events
//     draw from daySrc strictly in pop order.
//   - A popped event whose time has fallen behind the clock (the
//     previous command overran its slot) is clamped to now + 1 minute.
//   - Background chatter is streamed from the day's own Split("bg")
//     child, burst by burst as the clock reaches it. Split never
//     advances daySrc, so when a burst is generated moves no draw.

// agendaEvent is one scheduled experiment event.
type agendaEvent struct {
	at        time.Duration // offset from day start
	seq       int           // FIFO tie-break among equal times
	malicious bool
}

// agenda is a typed min-heap of agendaEvents keyed (at, seq). Events
// are stored by value: scheduling allocates nothing once the backing
// slice has grown to the day's slot count.
type agenda struct {
	evs []agendaEvent
}

func (a *agenda) len() int { return len(a.evs) }

func (a *agenda) reset() { a.evs = a.evs[:0] }

func (a *agenda) less(i, j int) bool {
	if a.evs[i].at != a.evs[j].at {
		return a.evs[i].at < a.evs[j].at
	}
	return a.evs[i].seq < a.evs[j].seq
}

// schedule inserts an event, assigning the next sequence number.
func (a *agenda) schedule(at time.Duration, malicious bool) {
	ev := agendaEvent{at: at, seq: len(a.evs), malicious: malicious}
	a.evs = append(a.evs, ev)
	i := len(a.evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a.evs[i], a.evs[parent] = a.evs[parent], a.evs[i]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (a *agenda) pop() agendaEvent {
	ev := a.evs[0]
	n := len(a.evs) - 1
	a.evs[0] = a.evs[n]
	a.evs = a.evs[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && a.less(right, left) {
			min = right
		}
		if !a.less(min, i) {
			break
		}
		a.evs[i], a.evs[min] = a.evs[min], a.evs[i]
		i = min
	}
	return ev
}

// runDay simulates one day on the event scheduler: command slots are
// drawn up front, pushed onto the agenda, and executed in pop order
// with the clock jumping event to event.
func (r *run) runDay(day int) {
	daySrc := r.root.SplitN("day", day)
	r.agenda.reset()
	for i := 0; i < r.cfg.LegitPerDay; i++ {
		r.agenda.schedule(time.Duration(daySrc.Uniform(0, 16*3600))*time.Second, false)
	}
	for i := 0; i < r.cfg.AttackPerDay; i++ {
		r.agenda.schedule(time.Duration(daySrc.Uniform(0, 16*3600))*time.Second, true)
	}

	dayStart := r.clock.Now().Add(6 * time.Hour) // 06:00

	// Background chatter, streamed to the guard in chronological
	// order between events: each burst is generated only when the
	// day reaches it.
	var bg *trafficgen.BackgroundStream
	if r.cfg.BackgroundTraffic {
		bg = trafficgen.NewBackgroundStream(daySrc.Split("bg"), dayStart, 16*time.Hour)
	}

	for r.agenda.len() > 0 {
		ev := r.agenda.pop()
		at := dayStart.Add(ev.at)
		if at.Before(r.clock.Now()) {
			at = r.clock.Now().Add(time.Minute)
		}
		// Deliver the background packets that precede this event.
		if bg != nil {
			bg.EmitBefore(at, r.feedPacket)
		}

		r.clock.RunUntil(at)
		if ev.malicious {
			r.attackCommand(day, daySrc)
		} else {
			r.legitCommand(day, daySrc)
		}
	}
	if bg != nil {
		bg.Drain(r.feedPacket)
	}
	// Jump to next midnight, draining any timers still pending.
	r.clock.RunUntil(r.clock.Now().Truncate(24 * time.Hour).Add(24 * time.Hour))
}
