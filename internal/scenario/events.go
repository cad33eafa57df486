package scenario

import (
	"cmp"
	"slices"
	"time"

	"voiceguard/internal/trafficgen"
)

// This file is the event-driven day core. A day's command slots — the
// agenda — are drawn up front and sorted by time, and the day executes
// them in order, jumping the simulated clock straight to each.
// Sub-event machinery (push wake-ups, retries, fault windows, idle
// timers, dispatch delays) runs on simtime.Sim's own heap, so the
// whole run is discrete-event.
//
// Determinism rules (pinned by TestEventLoopMatchesReference's golden
// outcome digests):
//   - The sort is stable, so slots at the same time run in draw order
//     (legitimate slots before attacks).
//   - RNG draw order is untouched: slot times are drawn from daySrc in
//     the same sequence before any event executes, and command events
//     draw from daySrc strictly in execution order.
//   - An event whose time has fallen behind the clock (the previous
//     command overran its slot) is clamped to now + 1 minute.
//   - Background chatter is streamed from the day's own Split("bg")
//     child, burst by burst as the clock reaches it. Split never
//     advances daySrc, so when a burst is generated moves no draw.

// agendaEvent is one scheduled command slot.
type agendaEvent struct {
	at        time.Duration // offset from day start
	malicious bool
}

// runDay simulates one day on the event scheduler: command slots are
// drawn up front, sorted by time, and executed in order with the
// clock jumping event to event.
func (r *run) runDay(day int) {
	daySrc := r.root.SplitN("day", day)
	agenda := r.agenda[:0]
	for i := 0; i < r.cfg.LegitPerDay; i++ {
		agenda = append(agenda, agendaEvent{at: time.Duration(daySrc.Uniform(0, 16*3600)) * time.Second})
	}
	for i := 0; i < r.cfg.AttackPerDay; i++ {
		agenda = append(agenda, agendaEvent{at: time.Duration(daySrc.Uniform(0, 16*3600)) * time.Second, malicious: true})
	}
	slices.SortStableFunc(agenda, func(a, b agendaEvent) int { return cmp.Compare(a.at, b.at) })
	r.agenda = agenda

	dayStart := r.clock.Now().Add(6 * time.Hour) // 06:00

	// Background chatter, streamed to the guard in chronological
	// order between events: each burst is generated only when the
	// day reaches it.
	var bg *trafficgen.BackgroundStream
	if r.cfg.BackgroundTraffic {
		bg = trafficgen.NewBackgroundStream(daySrc.Split("bg"), dayStart, 16*time.Hour)
	}

	for _, ev := range agenda {
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
