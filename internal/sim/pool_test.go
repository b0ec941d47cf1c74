package sim

import (
	"testing"
)

// TestEventStateTransitions pins the explicit event lifecycle: pending ->
// fired and pending -> canceled are the only transitions, they are
// terminal, and they are distinguishable (the pre-pooling implementation
// conflated "fired" with "canceled").
func TestEventStateTransitions(t *testing.T) {
	e := NewEngine()

	fired := e.Schedule(10, func() {})
	if !fired.Pending() || fired.Fired() || fired.Canceled() {
		t.Fatalf("new event: Pending=%v Fired=%v Canceled=%v", fired.Pending(), fired.Fired(), fired.Canceled())
	}
	e.Run()
	if !fired.Fired() || fired.Canceled() || fired.Pending() {
		t.Fatalf("after firing: Pending=%v Fired=%v Canceled=%v", fired.Pending(), fired.Fired(), fired.Canceled())
	}
	// Cancel after fire must not rewrite history.
	e.Cancel(fired)
	if !fired.Fired() || fired.Canceled() {
		t.Error("Cancel after fire changed the event's state")
	}

	canceled := e.Schedule(10, func() { t.Error("canceled event fired") })
	e.Cancel(canceled)
	if !canceled.Canceled() || canceled.Fired() || canceled.Pending() {
		t.Fatalf("after cancel: Pending=%v Fired=%v Canceled=%v", canceled.Pending(), canceled.Fired(), canceled.Canceled())
	}
	e.Run()
	if !canceled.Canceled() || canceled.Fired() {
		t.Error("Run changed a canceled event's state")
	}
	// Double-cancel stays a no-op.
	e.Cancel(canceled)
	if !canceled.Canceled() {
		t.Error("double cancel changed state")
	}
}

// TestEventCancelInNowLane covers cancellation of a current-instant event
// (which lives in the FIFO fast lane, not the heap).
func TestEventCancelInNowLane(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(0, func() { ran = true })
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancel, want 0", e.Pending())
	}
	e.Run()
	if ran {
		t.Error("canceled now-lane event fired")
	}
	if !ev.Canceled() {
		t.Error("now-lane event not marked canceled")
	}
}

// TestNowLaneOrdering verifies the fast-lane invariant: heap events at
// the current time (scheduled earlier, smaller seq) dispatch before
// same-time events scheduled during that instant, which run in FIFO
// order — i.e. exactly ascending (time, seq).
func TestNowLaneOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() {
		got = append(got, 0)
		// Scheduled while the clock sits at t=10: must run after the
		// other heap event at t=10.
		e.Schedule(0, func() { got = append(got, 2) })
		e.Schedule(0, func() { got = append(got, 3) })
	})
	e.Schedule(10, func() { got = append(got, 1) })
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestEventPoolRecycling checks that fired ScheduleArg events return to
// the free list and are reused, while events whose pointer escaped
// (Schedule/At/ScheduleTimer) are never recycled.
func TestEventPoolRecycling(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	e.ScheduleArg(1, nop, nil)
	e.Run()
	if e.FreeListLen() != 1 {
		t.Fatalf("free list = %d after one pooled fire, want 1", e.FreeListLen())
	}
	// The next pooled schedule must consume the recycled event.
	e.ScheduleArg(1, nop, nil)
	if e.FreeListLen() != 0 {
		t.Fatalf("free list = %d after reuse, want 0", e.FreeListLen())
	}
	e.Run()

	// Escaped events may be served FROM the free list, but they never
	// come back: a retained handle must stay inert instead of becoming
	// someone else's event.
	ev := e.Schedule(1, func() {})
	tm := e.ScheduleTimer(2, nop, nil)
	free := e.FreeListLen()
	e.Run()
	if e.FreeListLen() != free {
		t.Errorf("escaped events were recycled (free list %d -> %d)", free, e.FreeListLen())
	}
	if !ev.Fired() || !tm.Fired() {
		t.Error("escaped events did not fire")
	}
}

// TestAllocsScheduleFireRecycle pins the engine's steady-state cost: one
// ScheduleArg/fire/recycle cycle must not allocate, through both the
// same-time fast lane and the heap.
func TestAllocsScheduleFireRecycle(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	// Warm the pool and the lane's backing array.
	for i := 0; i < 8; i++ {
		e.ScheduleArg(0, nop, nil)
		e.ScheduleArg(1, nop, nil)
	}
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(0, nop, nil) // fast lane
		e.Step()
	}); avg != 0 {
		t.Errorf("fast-lane schedule/fire/recycle allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(5, nop, nil) // heap path
		e.Run()
	}); avg != 0 {
		t.Errorf("heap schedule/fire/recycle allocates %v/op, want 0", avg)
	}
}

// TestRearmAfterLaneCancel: re-arming a timer that was canceled while
// resident in the now lane must not revive the stale lane slot — the
// re-armed callback fires exactly once, at the re-armed time.
func TestRearmAfterLaneCancel(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func(any) { fired = append(fired, e.Now()) }
	ev := e.ScheduleTimer(0, record, nil) // lands in the now lane
	e.Cancel(ev)                          // lazily marked; slot still queued
	ev = e.Rearm(ev, 5, record, nil)      // must not reuse the resident object
	e.Schedule(1, func() {})              // keep the clock moving
	e.Run()
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("re-armed timer fired at %v, want exactly once at t=5", fired)
	}
	if !ev.Fired() {
		t.Error("re-armed event not marked fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0 (lane accounting corrupted)", e.Pending())
	}
	// And the normal reuse path still works: cancel out of the heap,
	// re-arm, fire.
	ev2 := e.ScheduleTimer(10, record, nil)
	e.Cancel(ev2)
	ev3 := e.Rearm(ev2, 3, record, nil)
	if ev3 != ev2 {
		t.Error("heap-canceled event was not reused in place")
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("heap-path rearm fired %d times total, want 2", len(fired))
	}
}

// eqMix hashes an event id into deterministic scheduling decisions, so
// the pooled and reference engines execute the same program without
// sharing state.
func eqMix(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 33
	return id
}

// eqDriver runs the randomized schedule program on one engine, recording
// dispatch order.
type eqDriver struct {
	e      queueEngine
	order  []uint64
	nextID uint64
	budget int
	live   []*Event // cancelable handles, in creation order
}

func (d *eqDriver) schedule(id uint64) {
	h := eqMix(id)
	delay := Duration(h % 37) // includes 0: exercises the fast lane
	if h&1 == 0 {
		d.e.ScheduleArg(delay, d.fire, id)
		return
	}
	ev := d.e.Schedule(delay, func() { d.fired(id) })
	d.live = append(d.live, ev)
}

func (d *eqDriver) fire(x any) { d.fired(x.(uint64)) }

func (d *eqDriver) fired(id uint64) {
	d.order = append(d.order, id)
	h := eqMix(id + 0x9e37)
	if h%3 == 0 && d.budget > 0 {
		d.budget--
		d.nextID++
		d.schedule(d.nextID)
	}
	if h%5 == 0 && d.budget > 0 {
		d.budget--
		d.nextID++
		d.schedule(d.nextID)
	}
	if h%7 == 0 && len(d.live) > 0 {
		victim := d.live[int(h%uint64(len(d.live)))]
		d.e.Cancel(victim)
	}
}

// TestPoolEquivalenceRandomized drives an identical randomized schedule —
// mixed closure/pre-bound forms, zero and nonzero delays, nested
// scheduling, cancellations — through a pooled engine and refEngine (no
// pool, no fast lane) and asserts identical dispatch order, Executed
// counts, and final clocks.
func TestPoolEquivalenceRandomized(t *testing.T) {
	const seeds = 20
	for seed := uint64(0); seed < seeds; seed++ {
		run := func(e queueEngine) *eqDriver {
			d := &eqDriver{e: e, budget: 2000, nextID: seed * 1_000_000}
			rng := NewRNG(seed, "pool-eq")
			for i := 0; i < 50; i++ {
				d.nextID++
				_ = rng.Uint64()
				d.schedule(d.nextID)
			}
			e.Run()
			return d
		}
		pooled := run(NewEngine())
		ref := run(newRefEngine())

		if len(pooled.order) != len(ref.order) {
			t.Fatalf("seed %d: pooled dispatched %d events, reference %d",
				seed, len(pooled.order), len(ref.order))
		}
		for i := range pooled.order {
			if pooled.order[i] != ref.order[i] {
				t.Fatalf("seed %d: dispatch order diverges at %d: pooled=%d reference=%d",
					seed, i, pooled.order[i], ref.order[i])
			}
		}
		if pooled.e.executed() != ref.e.executed() {
			t.Errorf("seed %d: Executed %d vs %d", seed, pooled.e.executed(), ref.e.executed())
		}
		if pooled.e.Now() != ref.e.Now() {
			t.Errorf("seed %d: final clock %d vs %d", seed, pooled.e.Now(), ref.e.Now())
		}
	}
}
