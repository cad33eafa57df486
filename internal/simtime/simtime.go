// Package simtime provides a deterministic simulated clock and event
// scheduler used by the trace-plane simulation.
//
// All simulation components (traffic generators, mobility models, the
// guard's decision pipeline) read time from a Clock rather than calling
// time.Now directly, so entire multi-day experiments execute in
// microseconds and replay identically for a given seed.
package simtime

import "time"

// Clock supplies the current time. Production code uses Real; the
// simulation uses *Sim.
type Clock interface {
	Now() time.Time
}

// Real is a Clock backed by the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now returns the wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Timer is a pending callback, as ScheduleTimer hands it out; Cancel
// keeps it from firing.
type Timer interface {
	Cancel()
}

// Event is a scheduled callback inside a *Sim.
type Event struct {
	at  time.Time
	seq uint64
	fn  func()

	owner     *Sim
	index     int // heap slot, or -1 when not queued
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.owner != nil && e.index >= 0 {
		e.owner.live--
	}
}

// At reports the time the event is scheduled for.
func (e *Event) At() time.Time { return e.at }

// Sim is a simulated clock with an event queue. It is not safe for
// concurrent use; the trace-plane simulation is single-threaded by
// design so that runs are reproducible.
type Sim struct {
	now    time.Time
	nextID uint64
	live   int
	queue  eventQueue
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulated clock starting at start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Time { return s.now }

// Schedule registers fn to run at time at. Scheduling in the past (or
// at the current instant) runs the event on the next Advance/Run step
// without moving the clock backwards.
func (s *Sim) Schedule(at time.Time, fn func()) *Event {
	if at.Before(s.now) {
		at = s.now
	}
	s.nextID++
	ev := &Event{at: at, seq: s.nextID, fn: fn, owner: s}
	s.queue.push(ev)
	s.live++
	return ev
}

// Reschedule moves an existing event to a new time, reusing its
// callback and storage. It is exactly equivalent to
//
//	ev.Cancel()
//	ev = s.Schedule(at, fn)
//
// — the event takes a fresh sequence number, so FIFO ordering among
// equal timestamps matches the cancel-and-schedule idiom bit for bit —
// but performs no allocation, which matters on per-packet paths such
// as the guard's idle-gap timer. The event may be live, cancelled, or
// already fired; in every case it ends up scheduled at at (clamped to
// now, like Schedule).
func (s *Sim) Reschedule(ev *Event, at time.Time) *Event {
	if at.Before(s.now) {
		at = s.now
	}
	s.nextID++
	ev.at = at
	ev.seq = s.nextID
	ev.owner = s
	if ev.index >= 0 {
		if ev.cancelled {
			ev.cancelled = false
			s.live++
		}
		s.queue.fix(ev.index)
	} else {
		ev.cancelled = false
		s.queue.push(ev)
		s.live++
	}
	return ev
}

// ScheduleTimer is Schedule for callers that hold the clock behind an
// interface shared with a wall clock.
func (s *Sim) ScheduleTimer(at time.Time, fn func()) Timer { return s.Schedule(at, fn) }

// RescheduleTimer is Reschedule for the same callers; t must be a
// timer this Sim handed out.
func (s *Sim) RescheduleTimer(t Timer, at time.Time) Timer {
	return s.Reschedule(t.(*Event), at)
}

// After registers fn to run d after the current simulated time.
func (s *Sim) After(d time.Duration, fn func()) *Event {
	return s.Schedule(s.now.Add(d), fn)
}

// Every schedules fn at the given period, starting one period from
// now, until the returned Event is cancelled.
func (s *Sim) Every(period time.Duration, fn func()) *Event {
	// The ticker is represented by a self-rescheduling event. The
	// handle returned to the caller is a proxy whose Cancel stops the
	// chain.
	proxy := &Event{index: -1}
	var tick func()
	tick = func() {
		if proxy.cancelled {
			return
		}
		fn()
		if proxy.cancelled {
			return
		}
		inner := s.After(period, tick)
		proxy.at = inner.at
	}
	inner := s.After(period, tick)
	proxy.at = inner.at
	return proxy
}

// Advance moves simulated time forward by d, running all events that
// become due, in timestamp order (FIFO among equal timestamps).
func (s *Sim) Advance(d time.Duration) {
	s.AdvanceTo(s.now.Add(d))
}

// AdvanceTo moves simulated time to t, running all events due at or
// before t. If t is in the past, AdvanceTo is a no-op.
func (s *Sim) AdvanceTo(t time.Time) {
	if t.Before(s.now) {
		return
	}
	for len(s.queue.evs) > 0 {
		next := s.queue.evs[0]
		if next.at.After(t) {
			break
		}
		s.queue.popMin()
		if next.cancelled {
			continue
		}
		s.live--
		// An event callback may itself advance the clock (a scheduled
		// command feeds packets and settles timers); never move it
		// backwards afterwards.
		if next.at.After(s.now) {
			s.now = next.at
		}
		next.fn()
	}
	if t.After(s.now) {
		s.now = t
	}
}

// Run executes events until the queue is empty, advancing the clock to
// each event's timestamp. Self-rescheduling events (Every) make Run
// non-terminating; use RunUntil for those workloads.
func (s *Sim) Run() {
	for len(s.queue.evs) > 0 {
		next := s.queue.popMin()
		if next.cancelled {
			continue
		}
		s.live--
		if next.at.After(s.now) {
			s.now = next.at
		}
		next.fn()
	}
}

// RunUntil executes due events and stops once the clock reaches t.
func (s *Sim) RunUntil(t time.Time) { s.AdvanceTo(t) }

// Step fires the single next live event, advancing the clock to its
// timestamp, and reports whether an event ran. The queue may hold
// cancelled events; Step discards them without running anything.
func (s *Sim) Step() bool {
	for len(s.queue.evs) > 0 {
		next := s.queue.popMin()
		if next.cancelled {
			continue
		}
		s.live--
		if next.at.After(s.now) {
			s.now = next.at
		}
		next.fn()
		return true
	}
	return false
}

// NextAt reports the timestamp of the next live event, if any. It
// prunes already-cancelled events from the top of the queue, so a
// caller can jump the clock straight to the returned time.
func (s *Sim) NextAt() (time.Time, bool) {
	for len(s.queue.evs) > 0 && s.queue.evs[0].cancelled {
		s.queue.popMin()
	}
	if len(s.queue.evs) == 0 {
		return time.Time{}, false
	}
	return s.queue.evs[0].at, true
}

// Pending reports the number of live (non-cancelled) events in the
// queue. It is O(1): the count is maintained by Schedule, Reschedule,
// Cancel, and event dispatch.
func (s *Sim) Pending() int { return s.live }

// eventQueue is a hand-rolled min-heap on (at, seq). A typed heap
// avoids the interface boxing of container/heap, which costs an
// allocation per push on the simulator's hottest path (per-packet
// timer arming).
type eventQueue struct {
	evs []*Event
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.evs[i], q.evs[j]
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

func (q *eventQueue) swap(i, j int) {
	q.evs[i], q.evs[j] = q.evs[j], q.evs[i]
	q.evs[i].index = i
	q.evs[j].index = j
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(q.evs)
	q.evs = append(q.evs, ev)
	q.up(ev.index)
}

// popMin removes and returns the root of the heap. The removed event's
// index is set to -1 so Reschedule can tell fired events from queued
// ones.
func (q *eventQueue) popMin() *Event {
	ev := q.evs[0]
	n := len(q.evs) - 1
	q.evs[0] = q.evs[n]
	q.evs[0].index = 0
	q.evs[n] = nil
	q.evs = q.evs[:n]
	if n > 0 {
		q.down(0)
	}
	ev.index = -1
	return ev
}

// fix restores heap order after the event at slot i changed its key.
func (q *eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) bool {
	start := i
	n := len(q.evs)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			break
		}
		q.swap(i, min)
		i = min
	}
	return i > start
}
