// Package sim implements the deterministic discrete-event engine that
// drives every model in the simulator: the wormhole fabric, the LANai
// NIC, the MCP firmware, and the GM host layer.
//
// The engine maintains a picosecond-resolution clock and a priority
// queue of events. Events scheduled for the same instant fire in the
// order they were scheduled, which makes every simulation run
// reproducible byte-for-byte given the same inputs.
//
// The queue is an index-based binary heap over a slab of event slots
// with a free-list: scheduling an event in steady state reuses a slot
// and a heap cell that earlier events vacated, so the hot
// Schedule/Step cycle performs no allocation (see alloc_test.go).
// Callers that would otherwise allocate a capturing closure per event
// can use ScheduleArg/ScheduleArgAt, which carry a single argument to
// a shared callback.
//
// Events that are always scheduled with one constant delay can bypass
// the heap through a fixed-delay FIFO (Engine.FixedDelay): they arrive
// already sorted, so the engine merges the FIFO heads with the heap
// root and the global (at, seq) firing order is unchanged.
package sim

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Event is a handle to a scheduled callback, valid for cancellation
// until the event fires. The zero value is NoEvent. Handles carry a
// generation number, so cancelling an already-fired event whose slot
// has been reused is a safe no-op.
type Event struct {
	idx int32
	gen uint32
}

// NoEvent is the zero handle: it names no event and Cancel ignores it.
var NoEvent = Event{}

// Valid reports whether the handle names an event that was scheduled
// (it may have fired or been cancelled since).
func (ev Event) Valid() bool { return ev.gen != 0 }

// slot is the slab entry behind one scheduled event. Exactly one of
// fn/afn is set while the slot is queued and live; both are nil once
// the event is cancelled or the slot is free.
type slot struct {
	at  units.Time
	seq uint64
	fn  func()
	afn func(any)
	arg any
	gen uint32
}

func (s *slot) live() bool { return s.fn != nil || s.afn != nil }

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; create engines with NewEngine. An
// Engine is not safe for concurrent use: a simulation is a single
// logical timeline and runs on one goroutine by design.
type Engine struct {
	now   units.Time
	seq   uint64
	slots []slot
	free  []int32 // free slot indexes (LIFO)
	heap  []int32 // slot indexes ordered by (at, seq)
	// fixed holds the fixed-delay FIFOs, one per distinct delay, in
	// creation order.
	fixed   []*FixedDelay
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with the clock at zero and no events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Pending returns the number of events waiting to fire (including
// cancelled events that have not yet been drained), in the heap and in
// every fixed-delay FIFO.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for _, q := range e.fixed {
		n += q.q.Len()
	}
	return n
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule queues fn to run after delay. A zero delay schedules fn for
// the current instant, after all events already queued for that
// instant. Negative delays panic: the simulated past is immutable.
func (e *Engine) Schedule(delay units.Time, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(e.now+delay, fn, nil, nil)
}

// ScheduleAt queues fn to run at absolute time t, which must not be in
// the past.
func (e *Engine) ScheduleAt(t units.Time, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(t, fn, nil, nil)
}

// ScheduleArg queues fn(arg) to run after delay. It exists for hot
// paths: a long-lived fn plus a per-event arg avoids allocating a
// capturing closure for every event.
func (e *Engine) ScheduleArg(delay units.Time, fn func(any), arg any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(e.now+delay, nil, fn, arg)
}

// ScheduleArgAt queues fn(arg) to run at absolute time t.
func (e *Engine) ScheduleArgAt(t units.Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(t, nil, fn, arg)
}

func (e *Engine) schedule(t units.Time, fn func(), afn func(any), arg any) Event {
	idx := e.alloc(t, fn, afn, arg)
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return Event{idx: idx, gen: e.slots[idx].gen}
}

// alloc fills a free slot with the next event (taking the next seq)
// and returns its index; the caller queues it.
func (e *Engine) alloc(t units.Time, fn func(), afn func(any), arg any) int32 {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{gen: 1})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at, s.seq = t, e.seq
	s.fn, s.afn, s.arg = fn, afn, arg
	e.seq++
	return idx
}

// Cancel prevents ev from firing. Cancelling NoEvent, an already-fired
// or an already-cancelled event is a no-op.
func (e *Engine) Cancel(ev Event) {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen {
		return // the event fired; its slot may already serve another
	}
	// Leave the slot in the heap; it is recycled when popped. This
	// keeps Cancel O(1), which matters for the GM layer's
	// retransmission timers (almost all of which are cancelled).
	s.fn, s.afn, s.arg = nil, nil, nil
}

// Live reports whether ev is still queued and uncancelled.
func (e *Engine) Live(ev Event) bool {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[ev.idx]
	return s.gen == ev.gen && s.live()
}

// EventTime returns the instant ev is scheduled for, with ok=false if
// the event has already fired, was cancelled, or is NoEvent.
func (e *Engine) EventTime(ev Event) (t units.Time, ok bool) {
	if !e.Live(ev) {
		return 0, false
	}
	return e.slots[ev.idx].at, true
}

// recycle returns a popped slot to the free-list and bumps its
// generation so outstanding handles to the old event go stale.
func (e *Engine) recycle(idx int32) {
	s := &e.slots[idx]
	s.fn, s.afn, s.arg = nil, nil, nil
	s.gen++
	if s.gen == 0 {
		s.gen = 1 // keep the zero generation reserved for NoEvent
	}
	e.free = append(e.free, idx)
}

// Step fires the next pending event, if any, and reports whether an
// event was fired. Cancelled events are drained silently.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step fires the next live event if it is due by deadline, draining
// cancelled events ahead of it, and reports whether one fired.
func (e *Engine) step(deadline units.Time) bool {
	for {
		idx, from := e.next()
		if idx < 0 {
			return false
		}
		s := &e.slots[idx]
		if !s.live() {
			e.remove(from)
			e.recycle(idx)
			continue
		}
		if s.at > deadline {
			return false
		}
		e.remove(from)
		at := s.at
		fn, afn, arg := s.fn, s.afn, s.arg
		e.recycle(idx)
		if at < e.now {
			panic("sim: time went backwards")
		}
		e.now = at
		e.fired++
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		return true
	}
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain
// queued.
func (e *Engine) RunUntil(deadline units.Time) {
	e.stopped = false
	for !e.stopped && e.step(deadline) {
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor runs the simulation for d simulated time from now.
func (e *Engine) RunFor(d units.Time) {
	e.RunUntil(e.now + d)
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// NextEventAt returns the time of the next live event, or ok=false if
// the queue is empty. Cancelled events at the front are drained.
func (e *Engine) NextEventAt() (t units.Time, ok bool) {
	for {
		idx, from := e.next()
		if idx < 0 {
			return 0, false
		}
		if s := &e.slots[idx]; s.live() {
			return s.at, true
		}
		e.remove(from)
		e.recycle(idx)
	}
}

// next returns the queued slot that fires first, live or cancelled —
// the heap root or a fixed-delay FIFO's head, whichever is earlier by
// (at, seq) — and the FIFO holding it (nil for the heap). It returns
// -1 when nothing is queued.
func (e *Engine) next() (int32, *FixedDelay) {
	idx := int32(-1)
	if len(e.heap) > 0 {
		idx = e.heap[0]
	}
	var from *FixedDelay
	for _, q := range e.fixed {
		if q.q.Len() == 0 {
			continue
		}
		if h := q.q.Peek(); idx < 0 || e.before(h, idx) {
			idx, from = h, q
		}
	}
	return idx, from
}

// remove dequeues the slot next returned from its queue.
func (e *Engine) remove(from *FixedDelay) {
	if from == nil {
		e.popRoot()
		return
	}
	from.q.Pop()
}

// ---------------------------------------------------------------
// Fixed-delay FIFOs.

// FixedDelay is an event queue that takes only events scheduled with
// one constant delay. Such events need no heap: each gets the engine's
// next seq and fires at now+delay, and the clock never goes backwards,
// so they arrive in the FIFO already sorted by (at, seq). The engine
// fires the earlier of the heap root and the FIFO heads, which keeps
// the global firing order exactly what the heap alone would give.
// Handles are ordinary Events: Cancel stays O(1) and lazy, and a
// cancelled entry is drained when it reaches the head.
type FixedDelay struct {
	e     *Engine
	delay units.Time
	q     FIFO[int32] // slot indexes in (at, seq) order
}

// FixedDelay returns the engine's fixed-delay FIFO for delay d,
// creating it on first use. Negative delays panic.
func (e *Engine) FixedDelay(d units.Time) *FixedDelay {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	for _, q := range e.fixed {
		if q.delay == d {
			return q
		}
	}
	q := &FixedDelay{e: e, delay: d}
	e.fixed = append(e.fixed, q)
	return q
}

// Schedule queues fn to run after the FIFO's delay. It fires in the
// same order, relative to every other event, as Engine.Schedule with
// that delay would.
func (q *FixedDelay) Schedule(fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := q.e
	idx := e.alloc(e.now+q.delay, fn, nil, nil)
	q.q.Push(idx)
	return Event{idx: idx, gen: e.slots[idx].gen}
}

// ---------------------------------------------------------------
// Index heap over (at, seq). Plain slice operations: no interface
// boxing, no per-operation allocation once capacity is warm.

// before reports whether slot a fires before slot b.
func (e *Engine) before(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && e.before(h[r], h[l]) {
			least = r
		}
		if !e.before(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// popRoot removes the heap's minimum element (the caller has already
// read e.heap[0]).
func (e *Engine) popRoot() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
}
