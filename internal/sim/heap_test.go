package sim

import (
	"testing"
)

// This file pins the 4-ary (time, seq) heap: its shape invariants under
// eager cancellation, in-place Rearm reuse, and randomized dispatch-order
// equivalence with refEngine across delay bands that straddle the
// boundaries of the calendar ring the heap replaced (256 ns buckets, a
// ~2.1 ms horizon).

// Delay regimes the former calendar ring handled with separate
// containers; the heap must treat them uniformly.
const (
	oldBucket  = Duration(256)     // below: the ring's drain-window heap
	oldHorizon = Duration(1 << 21) // above (~2.1 ms): its overflow heap
)

// checkHeap asserts the heap order and that every entry's inline key and
// idx agree with its event.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, x := range e.heap {
		if i == 0 && e.vacant {
			continue
		}
		if x.ev.idx != i || x.ev.where != whereHeap || x.at != x.ev.at || x.seq != x.ev.seq {
			t.Fatalf("slot %d: entry (%d, %d) idx %d where %d, event (%d, %d)",
				i, x.at, x.seq, x.ev.idx, x.ev.where, x.ev.at, x.ev.seq)
		}
		if i > 0 && (i > 4 || !e.vacant) && x.less(e.heap[(i-1)/4]) {
			t.Fatalf("slot %d (%d, %d) precedes its parent", i, x.at, x.seq)
		}
	}
}

// calDriver runs a randomized schedule program on one engine, recording
// dispatch order. Delays are drawn from bands that straddle the old
// ring's boundaries: 0 (fast lane), sub-bucket, multi-bucket, anywhere
// inside the horizon, and beyond it.
type calDriver struct {
	e      queueEngine
	order  []uint64
	nextID uint64
	budget int
	timers []*Event // cancelable/re-armable handles, in creation order
}

// calDelay maps a hash to a delay in one of the bands.
func calDelay(h uint64) Duration {
	switch h % 5 {
	case 0:
		return 0
	case 1:
		return Duration(h % uint64(oldBucket))
	case 2:
		return Duration(h % uint64(64*oldBucket))
	case 3:
		return Duration(h % uint64(oldHorizon))
	default:
		return Duration(uint64(oldHorizon) + h%uint64(oldHorizon))
	}
}

func (d *calDriver) schedule(id uint64) {
	h := eqMix(id)
	delay := calDelay(h >> 8)
	switch h % 3 {
	case 0:
		d.e.ScheduleArg(delay, d.fire, id)
	case 1:
		d.timers = append(d.timers, d.e.Schedule(delay, func() { d.fired(id) }))
	default:
		d.timers = append(d.timers, d.e.ScheduleTimer(delay, d.fire, id))
	}
}

func (d *calDriver) fire(x any) { d.fired(x.(uint64)) }

func (d *calDriver) fired(id uint64) {
	d.order = append(d.order, id)
	h := eqMix(id + 0x517c)
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
	if h%7 == 0 && len(d.timers) > 0 {
		d.e.Cancel(d.timers[int(h>>16)%len(d.timers)])
	}
	if h%11 == 0 && len(d.timers) > 0 && d.budget > 0 {
		// Rearm a settled (fired or canceled) timer across bands: a
		// short-delay timer comes back far-future and vice versa.
		i := int(h>>24) % len(d.timers)
		if tm := d.timers[i]; !tm.Pending() {
			d.budget--
			d.nextID++
			id := d.nextID
			d.timers[i] = d.e.Rearm(tm, calDelay(eqMix(id)), d.fire, id)
		}
	}
}

// TestCalendarHeapEquivalenceRandomized drives an identical randomized
// schedule — all delay bands, nested scheduling, cancellations, and
// cross-band re-arms — through the production engine and refEngine,
// asserting identical dispatch order, dispatch hashes, Executed counts,
// and final clocks.
func TestCalendarHeapEquivalenceRandomized(t *testing.T) {
	const seeds = 25
	for seed := uint64(0); seed < seeds; seed++ {
		run := func(e queueEngine) *calDriver {
			e.EnableDispatchHash()
			d := &calDriver{e: e, budget: 3000, nextID: seed * 1_000_000}
			for i := 0; i < 40; i++ {
				d.nextID++
				d.schedule(d.nextID)
			}
			e.Run()
			return d
		}
		prod := run(NewEngine())
		ref := run(newRefEngine())

		if len(prod.order) != len(ref.order) {
			t.Fatalf("seed %d: engine dispatched %d events, reference %d",
				seed, len(prod.order), len(ref.order))
		}
		for i := range prod.order {
			if prod.order[i] != ref.order[i] {
				t.Fatalf("seed %d: dispatch order diverges at %d: engine=%d reference=%d",
					seed, i, prod.order[i], ref.order[i])
			}
		}
		if prod.e.DispatchHash() != ref.e.DispatchHash() {
			t.Errorf("seed %d: dispatch hash %#x vs %#x", seed, prod.e.DispatchHash(), ref.e.DispatchHash())
		}
		if prod.e.executed() != ref.e.executed() {
			t.Errorf("seed %d: Executed %d vs %d", seed, prod.e.executed(), ref.e.executed())
		}
		if prod.e.Now() != ref.e.Now() {
			t.Errorf("seed %d: final clock %d vs %d", seed, prod.e.Now(), ref.e.Now())
		}
		if prod.e.Pending() != 0 {
			t.Errorf("seed %d: Pending = %d after drain", seed, prod.e.Pending())
		}
	}
}

// TestHeapRandomScheduleMatchesReference schedules 10k events up front
// across every delay band, cancels a random third of the handles while
// stepping, and checks the heap invariants, Pending and PeekTime against
// refEngine along the way and the dispatch order at the end.
func TestHeapRandomScheduleMatchesReference(t *testing.T) {
	const n = 10_000
	prod, ref := NewEngine(), newRefEngine()
	var prodOrder, refOrder []uint64
	prodFire := func(x any) { prodOrder = append(prodOrder, x.(uint64)) }
	refFire := func(x any) { refOrder = append(refOrder, x.(uint64)) }
	var prodEvs, refEvs []*Event
	for id := uint64(0); id < n; id++ {
		d := calDelay(eqMix(id))
		prodEvs = append(prodEvs, prod.ScheduleTimer(d, prodFire, id))
		refEvs = append(refEvs, ref.ScheduleTimer(d, refFire, id))
	}
	checkHeap(t, prod)
	for i := uint64(0); prod.Pending() > 0 || ref.Pending() > 0; i++ {
		if h := eqMix(i + 0xcafe); h%3 == 0 {
			k := int(h>>8) % n
			prod.Cancel(prodEvs[k])
			ref.Cancel(refEvs[k])
		}
		if i%64 == 0 {
			checkHeap(t, prod)
		}
		if prod.Pending() != ref.Pending() {
			t.Fatalf("op %d: Pending %d vs reference %d", i, prod.Pending(), ref.Pending())
		}
		pt, pok := prod.PeekTime()
		rt, rok := ref.PeekTime()
		if pt != rt || pok != rok {
			t.Fatalf("op %d: PeekTime (%d, %v) vs reference (%d, %v)", i, pt, pok, rt, rok)
		}
		prod.Step()
		ref.Step()
	}
	if len(prodOrder) != len(refOrder) {
		t.Fatalf("engine dispatched %d events, reference %d", len(prodOrder), len(refOrder))
	}
	for i := range prodOrder {
		if prodOrder[i] != refOrder[i] {
			t.Fatalf("dispatch order diverges at %d: engine=%d reference=%d", i, prodOrder[i], refOrder[i])
		}
	}
}

// TestFarFutureTieOrdering: an event scheduled far ahead (past the old
// ring horizon, small seq) must still dispatch before a later-scheduled
// event at the same timestamp (larger seq).
func TestFarFutureTieOrdering(t *testing.T) {
	e := NewEngine()
	target := Time(oldHorizon) + 777
	var got []int
	e.At(target, func() { got = append(got, 1) }) // seq 1
	e.Schedule(oldHorizon/2, func() {
		e.At(target, func() { got = append(got, 2) }) // seq 3
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("dispatch order %v, want [1 2] (earlier seq first)", got)
	}
	if e.Now() != target {
		t.Fatalf("final clock %d, want %d", e.Now(), target)
	}
}

// TestCancelAcrossContainers cancels a now-lane event and heap events
// at the root, at the last slot, and at an interior slot whose
// replacement (the last entry) must sift up, checking the heap shape,
// Pending accounting, and that none of them fire.
func TestCancelAcrossContainers(t *testing.T) {
	e := NewEngine()
	bad := func() { t.Error("canceled event fired") }
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	lane := e.Schedule(0, bad)
	// Level order with every entry after its parent, so no insert sifts:
	// root 1; slots 1-4 = 900, 10, 20, 30; slots 5-8 (900's children) =
	// 901-904; slot 9 (10's first child) = 11.
	evs := map[Time]*Event{}
	for _, at := range []Time{1, 900, 10, 20, 30, 901, 902, 903, 904, 11} {
		fn := rec
		if at == 1 || at == 11 || at == 901 {
			fn = bad
		}
		evs[at] = e.At(at, fn)
	}
	checkHeap(t, e)
	if evs[901].idx != 5 || evs[11].idx != 9 {
		t.Fatalf("setup shape: 901 at slot %d, 11 at slot %d; want 5 and 9", evs[901].idx, evs[11].idx)
	}
	// Canceling 901 moves the last entry, 11, into slot 5, below 900:
	// it must sift up to slot 1.
	e.Cancel(evs[901])
	checkHeap(t, e)
	if evs[11].idx != 1 {
		t.Fatalf("last entry 11 refilled slot 5 but sits at slot %d, want 1", evs[11].idx)
	}
	e.Cancel(evs[11]) // now an interior entry
	checkHeap(t, e)
	e.Cancel(evs[1]) // the root
	checkHeap(t, e)
	e.Cancel(e.heap[len(e.heap)-1].ev) // the last slot
	checkHeap(t, e)
	e.Cancel(lane)
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d after cancels, want 6", e.Pending())
	}
	e.Run()
	if len(got) != 6 {
		t.Fatalf("survivors fired at %v, want 6 events", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("survivors fired out of order: %v", got)
		}
	}
	for _, ev := range []*Event{lane, evs[1], evs[11], evs[901]} {
		if !ev.Canceled() {
			t.Error("event not marked canceled")
		}
	}
}

// TestRearmAcrossHorizon re-arms one timer object back and forth across
// the old ring boundaries (below one bucket, inside the horizon, past
// it). Heap cancellation is eager, so every Rearm must reuse the object
// in place.
func TestRearmAcrossHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func(any) { fired = append(fired, e.Now()) }
	e.ScheduleTimer(3*oldHorizon, func(any) {}, nil) // a deeper heap

	tm := e.ScheduleTimer(2*oldHorizon, record, nil)
	for _, d := range []Duration{oldBucket / 2, 3 * oldBucket, oldHorizon/2 + 1} {
		e.Cancel(tm)
		if tm.where != whereNone || tm.idx != -1 {
			t.Fatalf("canceled heap event still resident (where %d, idx %d)", tm.where, tm.idx)
		}
		if re := e.Rearm(tm, d, record, nil); re != tm {
			t.Fatalf("Rearm(%v) of a canceled heap event allocated a new event", d)
		}
		checkHeap(t, e)
	}
	e.Cancel(tm)
	if re := e.Rearm(tm, 2*oldHorizon+5, record, nil); re != tm {
		t.Fatal("Rearm past the old horizon allocated a new event")
	}
	e.Run()
	want := Time(0).Add(2*oldHorizon + 5)
	if len(fired) != 1 || fired[0] != want {
		t.Fatalf("fired %v, want exactly once at %d", fired, want)
	}
	// A fired heap event is reusable too.
	base := e.Now()
	if re := e.Rearm(tm, oldBucket/4, record, nil); re != tm {
		t.Fatal("Rearm of a fired event allocated a new event")
	}
	e.Run()
	if len(fired) != 2 || fired[1] != base.Add(oldBucket/4) {
		t.Fatalf("re-armed fired timer: fired %v", fired)
	}
}

// TestRunUntilAcrossWindows pins RunUntil semantics across long idle
// stretches: deadlines before queued far-future events leave the clock
// at the deadline with the events still pending.
func TestRunUntilAcrossWindows(t *testing.T) {
	e := NewEngine()
	far := Time(oldHorizon)
	var fired []Time
	at := func(t Time) { e.At(t, func() { fired = append(fired, t) }) }
	at(100)
	at(far + 50)
	e.RunUntil(far / 2)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired %v before deadline, want [100]", fired)
	}
	if e.Now() != far/2 {
		t.Fatalf("clock %d, want deadline %d", e.Now(), far/2)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(2 * far)
	if len(fired) != 2 || fired[1] != far+50 {
		t.Fatalf("fired %v after second deadline", fired)
	}
	if e.Now() != 2*far {
		t.Fatalf("clock %d, want %d", e.Now(), 2*far)
	}
}

// TestStopKeepsClock is the regression test for Stop inside RunUntil and
// RunWindow: a stop with events still queued before the deadline must
// leave the clock at the last dispatched event, so the next Step moves
// time forward, never back.
func TestStopKeepsClock(t *testing.T) {
	for _, run := range []struct {
		name string
		fn   func(e *Engine)
	}{
		{"RunUntil", func(e *Engine) { e.RunUntil(1000) }},
		{"RunWindow", func(e *Engine) { e.RunWindow(1000) }},
	} {
		e := NewEngine()
		n := 0
		for i := 1; i <= 5; i++ {
			e.At(Time(10*i), func() {
				if n++; n == 2 {
					e.Stop()
				}
			})
		}
		run.fn(e)
		if e.Now() != 20 {
			t.Errorf("%s: clock %d after Stop at the second event, want 20", run.name, e.Now())
		}
		before := e.Now()
		if !e.Step() || e.Now() != 30 || e.Now() < before {
			t.Errorf("%s: next Step moved the clock %d -> %d, want 30", run.name, before, e.Now())
		}
		// Running on without a Stop idles the clock to the deadline again.
		run.fn(e)
		if e.Now() != 1000 || e.Pending() != 0 {
			t.Errorf("%s: resumed run left clock %d, Pending %d; want 1000, 0", run.name, e.Now(), e.Pending())
		}
	}
}

// TestAllocsHeapChurn pins the steady state with ~4096 events pending:
// a pooled schedule, a timer cancel + in-place Rearm, and a dispatch per
// iteration allocate nothing once the heap and the free list are warm.
func TestAllocsHeapChurn(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	x := uint64(1)
	delay := func() Duration {
		x = x*6364136223846793005 + 1442695040888963407
		return 1 + Duration(x>>44)%(2*oldHorizon)
	}
	for i := 0; i < 8192; i++ {
		e.ScheduleArg(delay(), nop, nil)
	}
	for e.Pending() > 4096 {
		e.Step()
	}
	tm := e.ScheduleTimer(delay(), nop, nil)
	if avg := testing.AllocsPerRun(2000, func() {
		e.Cancel(tm)
		tm = e.Rearm(tm, delay(), nop, nil)
		e.ScheduleArg(delay(), nop, nil)
		e.Step()
	}); avg != 0 {
		t.Errorf("heap churn allocates %v/op with %d pending, want 0", avg, e.Pending())
	}
	checkHeap(t, e)
}

// TestVacantRoot pins the dispatched root's vacancy: between a Step and
// the next insert, Pending and PeekTime skip the vacant slot, a Cancel
// beneath it keeps the heap valid, and the callback's short-delay
// insert refills the root.
func TestVacantRoot(t *testing.T) {
	e := NewEngine()
	var inserted *Event
	e.At(10, func() {
		if e.Pending() != 3 {
			t.Errorf("Pending = %d inside the callback, want 3", e.Pending())
		}
		if at, ok := e.PeekTime(); !ok || at != 20 {
			t.Errorf("PeekTime = (%d, %v) beneath the vacancy, want (20, true)", at, ok)
		}
		inserted = e.Schedule(1, func() {})
	})
	e.At(30, func() {})
	twenty := e.At(20, func() {})
	e.At(40, func() {})
	e.Step()
	if e.vacant || inserted.idx != 0 {
		t.Fatalf("short-delay insert at slot %d (vacant %v), want the root", inserted.idx, e.vacant)
	}
	checkHeap(t, e)

	// A Step whose callback inserts nothing leaves the root vacant; a
	// Cancel then works beneath it, and the next Step settles it.
	e.Step() // 11
	if !e.vacant {
		t.Fatal("root not vacant after a Step with no insert")
	}
	e.Cancel(twenty)
	checkHeap(t, e)
	if at, ok := e.PeekTime(); !ok || at != 30 || e.Pending() != 2 {
		t.Fatalf("after cancel: PeekTime (%d, %v), Pending %d; want (30, true), 2", at, ok, e.Pending())
	}
	e.Run()
	if e.Now() != 40 || e.Pending() != 0 {
		t.Fatalf("drained at %d with Pending %d, want 40 and 0", e.Now(), e.Pending())
	}
}
