// Package sim provides a deterministic discrete-event simulation kernel
// used by every component of the MIND reproduction: a virtual clock in
// integer nanoseconds, a heap-ordered event queue, FIFO service
// resources for modelling queueing (NICs, switch pipelines, invalidation
// handlers), and a deterministic random-number source.
//
// The engine is strictly single-threaded: all component state is mutated
// inside event callbacks, executed in (time, sequence) order, so runs are
// bit-for-bit reproducible given the same seed and configuration.
//
// The steady-state scheduling path is allocation-free: ScheduleArg/AtArg
// take a pre-bound callback (a plain function plus its argument, instead
// of a freshly minted closure), their events are recycled through a free
// list after firing, and events scheduled for the current instant bypass
// the queue through a FIFO fast lane. Future events go into one compact
// 4-ary min-heap keyed inline by (time, sequence): O(log n) insert, pop
// and eager cancel. Dispatch order is exactly ascending (time, sequence).
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros converts the duration to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

// Event lifecycle states. A pending event is queued; firing and
// cancellation are terminal and mutually exclusive, which is what makes
// recycling safe to reason about: only fired, never-escaped events
// return to the free list.
const (
	statePending uint8 = iota
	stateFired
	stateCanceled
)

// Event locations: which container currently holds the event. A
// whereHeap event is removed eagerly on Cancel (idx names its heap
// slot); a whereLane event is canceled lazily and stays resident until
// its FIFO slot drains, so Rearm must not reuse the object before then.
const (
	whereNone uint8 = iota
	whereLane       // nowQ FIFO (current instant)
	whereHeap       // the (time, seq) heap; idx = heap position
)

// Event is a scheduled callback. The zero Event is invalid. Events
// returned by Schedule/At/ScheduleTimer stay owned by the caller and are
// never recycled; events created by ScheduleArg/AtArg never escape the
// engine and return to its free list after firing.
type Event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
	// idx is the event's position in the engine's heap while it is
	// whereHeap, -1 otherwise.
	idx    int
	state  uint8
	where  uint8
	pooled bool
}

// Canceled reports whether the event was removed before firing.
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// Fired reports whether the event's callback has been dispatched.
func (e *Event) Fired() bool { return e.state == stateFired }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e.state == statePending }

// Time returns the virtual time the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.at }

// CallFunc adapts a plain func() onto the pre-bound fn(arg) dispatch
// shape: pass CallFunc as fn and the closure as arg. Converting a func()
// to any stores the function pointer directly in the interface word — no
// allocation. The closure-style Schedule/At API and the fabric/cluster
// shims all route through this one adapter.
func CallFunc(x any) { x.(func())() }

// entry is one heap slot. The (at, seq) key is copied inline from the
// event, so sift comparisons read only the contiguous heap array; ev is
// touched only to record its new position when the entry moves.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// less is the global dispatch order: ascending (time, seq).
func (a entry) less(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// earlier returns whichever of slots i and j holds the earlier entry,
// without a branch: the borrow out of the 128-bit subtraction
// (h[j].at, h[j].seq) - (h[i].at, h[i].seq) is 1 exactly when h[j]
// precedes h[i], and it selects j. Sift-down picks the earliest of four
// children with three of these; data-dependent branches there would
// mispredict about half the time.
func earlier(h []entry, i, j int) int {
	_, borrow := bits.Sub64(h[j].seq, h[i].seq, 0)
	_, borrow = bits.Sub64(uint64(h[j].at)^(1<<63), uint64(h[i].at)^(1<<63), borrow)
	return i ^ ((i ^ j) & -int(borrow))
}

// Engine is the discrete-event simulation core. Create one with NewEngine;
// the zero value is not usable.
type Engine struct {
	now Time
	seq uint64

	// heap holds every pending event scheduled after the current
	// instant (and those at it that were scheduled earlier): a 4-ary
	// min-heap on (at, seq). Four children per node halve the depth of a
	// binary heap, and a sift-down compares siblings that share a cache
	// line or two. Rack engines hold tens to a few hundred events, so
	// the whole queue stays cache-resident.
	heap []entry
	// vacant marks heap[0] as the slot of the event Step just
	// dispatched, left in place so that the next insert — usually
	// scheduled by that event's own callback — refills the root with
	// one sift-down instead of a pop's sift-down followed by its own
	// sift-up. An insert that belongs near the front (a short delay)
	// then costs a level or two. The stale root keeps its key, which
	// precedes every queued entry, so a Cancel's sifts below it work
	// unchanged; Step settles the vacancy before it reads the root.
	vacant bool

	// nowQ is the same-time fast lane: a FIFO of events scheduled for
	// the current instant. The heap never receives an event at the
	// current time (place routes those here), so every heap event at
	// e.now predates — and therefore has a smaller seq than — every lane
	// entry, and "drain the heap at now first, then the lane in FIFO
	// order" is exactly ascending (time, seq). nowHead is the drain
	// cursor; nowLive counts lane entries that are still pending
	// (cancellation skips lazily).
	nowQ    []*Event
	nowHead int
	nowLive int

	// free is the event free list: fired ScheduleArg/AtArg events are
	// recycled here. Events whose pointer escaped to a caller
	// (Schedule/At/ScheduleTimer) are never recycled — a retained
	// handle must stay inert forever, not come back to life as someone
	// else's event. evMem is the carve block behind a dry free list: it
	// batches the warm-up of per-engine pools (a pod runs one engine per
	// rack).
	free  Pool[Event]
	evMem []Event

	stopped bool

	// Executed counts events dispatched since creation, for debugging and
	// runaway detection in tests.
	Executed uint64

	// Dispatch-trace hash (off by default): when enabled, fire folds
	// every dispatched (at, seq) pair into an FNV-style accumulator.
	// Two engines that executed the identical event sequence — same
	// times, same tie-break order — end with the same hash, which is
	// how the serial-vs-parallel equivalence tests assert "identical
	// (time, seq) dispatch" without recording full traces.
	hashOn       bool
	dispatchHash uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run after delay. A negative delay is treated as
// zero (the event runs at the current time, after already-queued events at
// that time). It returns the event so callers may cancel it.
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	return e.enqueue(e.now.Add(delay), CallFunc, fn, false)
}

// At enqueues fn to run at the absolute virtual time at. Times in the past
// are clamped to the current time.
func (e *Engine) At(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	return e.enqueue(at, CallFunc, fn, false)
}

// ScheduleArg enqueues the pre-bound callback fn(arg) to run after delay.
// This is the hot-path form: fn is typically a package-level function and
// arg a long-lived object, so no closure is allocated, and the event is
// recycled through the engine's free list after it fires. The event
// cannot be canceled (no handle is returned) — use ScheduleTimer for
// cancelable pre-bound events.
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) {
	if fn == nil {
		panic("sim: ScheduleArg with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	e.enqueue(e.now.Add(delay), fn, arg, true)
}

// AtArg enqueues the pre-bound callback fn(arg) at the absolute virtual
// time at (clamped to now), with the same pooling as ScheduleArg.
func (e *Engine) AtArg(at Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: AtArg with nil callback")
	}
	e.enqueue(at, fn, arg, true)
}

// ScheduleTimer enqueues the pre-bound callback fn(arg) after delay and
// returns the event for cancellation (timeouts, periodic ticks). The
// event escapes to the caller and is therefore never recycled.
func (e *Engine) ScheduleTimer(delay Duration, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: ScheduleTimer with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	return e.enqueue(e.now.Add(delay), fn, arg, false)
}

// Rearm reschedules a caller-owned timer event: ev must be nil (a fresh
// event is allocated, as ScheduleTimer) or fired/canceled — the caller is
// asserting exclusive ownership, so the object is reused in place instead
// of allocating. This is how recurring timeouts (one per page-fault
// issue) stay allocation-free without the engine ever recycling an
// escaped event on its own.
func (e *Engine) Rearm(ev *Event, delay Duration, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: Rearm with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	if ev == nil {
		return e.enqueue(e.now.Add(delay), fn, arg, false)
	}
	if ev.state == statePending {
		panic("sim: Rearm of a pending event (cancel it first)")
	}
	if ev.where == whereLane {
		// The canceled event still occupies a lane slot (lazy
		// cancellation); reusing the object would make the stale slot
		// fire the re-armed callback at the wrong time. Hand back a
		// fresh event instead — the stale one stays canceled and drains
		// harmlessly.
		return e.enqueue(e.now.Add(delay), fn, arg, false)
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.arg = e.now.Add(delay), e.seq, fn, arg
	ev.state, ev.idx, ev.pooled = statePending, -1, false
	e.place(ev)
	return ev
}

// alloc takes an event from the free list, or carves one from the
// engine's block allocation (refilled 64 events at a time).
func (e *Engine) alloc() *Event {
	if ev := e.free.Get(); ev != nil {
		return ev
	}
	if len(e.evMem) == 0 {
		e.evMem = make([]Event, 64)
	}
	ev := &e.evMem[0]
	e.evMem = e.evMem[1:]
	return ev
}

// enqueue creates (or recycles) one event and places it.
func (e *Engine) enqueue(at Time, fn func(any), arg any, pooled bool) *Event {
	if at < e.now {
		at = e.now
	}
	ev := e.alloc()
	e.seq++
	ev.at, ev.seq, ev.fn, ev.arg = at, e.seq, fn, arg
	ev.state, ev.pooled, ev.idx = statePending, pooled, -1
	e.place(ev)
	return ev
}

// place routes a pending event to the current-instant fast lane or the
// heap.
func (e *Engine) place(ev *Event) {
	if ev.at == e.now {
		ev.where = whereLane
		e.nowQ = append(e.nowQ, ev)
		e.nowLive++
		return
	}
	ev.where = whereHeap
	x := entry{ev.at, ev.seq, ev}
	if e.vacant {
		e.vacant = false
		e.siftDown(0, x)
		return
	}
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, x)
}

// siftUp stores x at hole i or above it, moving later parents down.
func (e *Engine) siftUp(i int, x entry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.idx = i
		i = p
	}
	h[i] = x
	x.ev.idx = i
}

// siftDown stores x at hole i or below it, moving earlier children up.
func (e *Engine) siftDown(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+3 < n {
			m = earlier(h, earlier(h, c, c+1), earlier(h, c+2, c+3))
		} else {
			for j := c + 1; j < n; j++ {
				m = earlier(h, m, j)
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		h[i].ev.idx = i
		i = m
	}
	h[i] = x
	x.ev.idx = i
}

// remove deletes heap slot i and returns its event.
func (e *Engine) remove(i int) *Event {
	ev := e.heap[i].ev
	e.cut(i)
	ev.where, ev.idx = whereNone, -1
	return ev
}

// cut deletes heap slot i: the last entry fills the hole and sifts
// whichever way restores the heap order. It never touches the deleted
// entry's event, which for a vacant root may already be recycled.
func (e *Engine) cut(i int) {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	e.heap = h[:n]
	if i < n {
		if i > 0 && last.less(h[(i-1)>>2]) {
			e.siftUp(i, last)
		} else {
			e.siftDown(i, last)
		}
	}
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op. Canceled events are never recycled:
// the caller keeps the (now inert) handle.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	if ev.where == whereHeap {
		e.remove(ev.idx)
	} else {
		// In the now lane: skipped lazily when its slot drains.
		e.nowLive--
	}
	ev.state = stateCanceled
	ev.fn, ev.arg = nil, nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	if e.vacant {
		return e.nowLive + len(e.heap) - 1
	}
	return e.nowLive + len(e.heap)
}

// fire dispatches one event, recycling it first if it never escaped.
func (e *Engine) fire(ev *Event) {
	if e.hashOn {
		h := e.dispatchHash
		h = (h ^ uint64(ev.at)) * 1099511628211
		h = (h ^ ev.seq) * 1099511628211
		e.dispatchHash = h
	}
	fn, arg := ev.fn, ev.arg
	ev.fn, ev.arg = nil, nil
	ev.state = stateFired
	ev.where = whereNone
	if ev.pooled {
		// Safe to recycle before the callback runs: fn/arg are saved,
		// and an immediate reuse inside the callback just reinitializes
		// the object.
		e.free.Put(ev)
	}
	e.Executed++
	fn(arg)
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp. It returns false if the queue is empty.
func (e *Engine) Step() bool {
	if e.vacant {
		e.vacant = false
		e.cut(0)
	}
	// Heap events at the current instant predate everything in the now
	// lane (see the nowQ invariant), so the lane drains only once the
	// heap's head lies in the future.
	for e.nowHead < len(e.nowQ) && (len(e.heap) == 0 || e.heap[0].at > e.now) {
		ev := e.nowQ[e.nowHead]
		e.nowQ[e.nowHead] = nil
		e.nowHead++
		if e.nowHead == len(e.nowQ) {
			e.nowQ = e.nowQ[:0]
			e.nowHead = 0
		}
		ev.where = whereNone
		if ev.state == stateCanceled {
			continue
		}
		e.nowLive--
		e.fire(ev)
		return true
	}
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0].ev
	ev.where, ev.idx = whereNone, -1
	e.vacant = true
	e.now = ev.at
	e.fire(ev)
	return true
}

// PeekTime returns the earliest pending event's timestamp without
// dispatching anything. It is the lookahead primitive of the
// sparse-horizon pod executor: at a barrier, the minimum PeekTime
// across all rack engines bounds the first window in which any rack can
// dispatch, so every window before it may be skipped.
//
// Peeking reads the lane count and the heap root and changes nothing,
// so the dispatch sequence — and therefore the dispatch-trace hash — is
// identical whether or not PeekTime was called. Call it only from
// contexts that already own the engine (barrier context under the pod
// executor).
func (e *Engine) PeekTime() (Time, bool) {
	if e.nowLive > 0 {
		return e.now, true
	}
	h := e.heap
	if e.vacant {
		// A vacant root's children head the remaining subtrees.
		if len(h) == 1 {
			return 0, false
		}
		m := 1
		for j := 2; j < min(5, len(h)); j++ {
			m = earlier(h, m, j)
		}
		return h[m].at, true
	}
	if len(h) > 0 {
		return h[0].at, true
	}
	return 0, false
}

// Run dispatches events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then sets the
// clock to deadline if the simulation ran dry earlier. Events scheduled
// beyond deadline remain queued. After a Stop the clock stays at the
// last dispatched event, since earlier events may still be queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if t, ok := e.PeekTime(); !ok || t > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return
		}
		e.Step()
	}
}

// RunWindow dispatches every event with timestamp strictly below end,
// then sets the clock to end. This is the lockstep-window primitive of
// the parallel pod executor: a window [start, end) owns exactly the
// events below its upper edge, and events at end belong to the next
// window — so an event injected *at* a window boundary (a cross-rack
// arrival) is never dispatched by the window that closed before it was
// injected. After RunWindow returns, every remaining queued event has
// at >= end and the clock sits exactly on the boundary, so boundary
// injections with at == end are legal non-past schedules. A Stop
// leaves the clock at the last dispatched event instead, as RunUntil.
func (e *Engine) RunWindow(end Time) {
	e.stopped = false
	for !e.stopped {
		if t, ok := e.PeekTime(); !ok || t >= end {
			if e.now < end {
				e.now = end
			}
			return
		}
		e.Step()
	}
}

// Stop halts Run/RunUntil/RunWindow after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// FreeListLen reports the current size of the event free list
// (diagnostics and pool tests).
func (e *Engine) FreeListLen() int { return e.free.Len() }

// EnableDispatchHash turns on the dispatch-trace hash (see DispatchHash).
// Enable before the first event fires; the accumulator starts at the
// FNV-1a offset basis.
func (e *Engine) EnableDispatchHash() {
	e.hashOn = true
	if e.dispatchHash == 0 {
		e.dispatchHash = 14695981039346656037
	}
}

// DispatchHash returns the accumulated hash over every dispatched
// (time, seq) pair since EnableDispatchHash. Equal hashes mean the two
// engines dispatched identical event sequences.
func (e *Engine) DispatchHash() uint64 { return e.dispatchHash }
