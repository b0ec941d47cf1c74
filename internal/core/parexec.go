package core

// Parallel pod execution: conservative lookahead over per-rack engines.
//
// The inter-rack interconnect has a fixed propagation delay P: nothing a
// rack does can affect another rack in less than P of virtual time. The
// executor exploits exactly that bound. All rack engines advance in
// lockstep windows [vnow, vnow+W) with W <= P; within a window each
// engine runs independently (optionally on a worker pool), because any
// cross-rack message sent inside the window arrives no earlier than its
// uplink completion plus P — at or beyond the window's end. Sends
// buffer in the interconnect's per-source outboxes and the barrier
// between windows injects them into the destination engines
// (fabric.Interconnect.FlushBoundary), merged in deterministic arrival
// order.
//
// RunWindow dispatches strictly below the window end and then parks the
// engine's clock ON the boundary, so between windows every engine sits
// at exactly vnow. That makes the lookahead argument airtight: any
// event scheduled from barrier context lands at >= vnow, and any send
// booked during the next window departs at >= vnow, arriving at
// >= vnow + P >= the next boundary.
//
// The barrier is also the pod's exclusive section. Operations that
// inherently span racks — blade borrow/return (two allocators), idle
// lease returns, scheduled failure injection (podfail.go), the
// experiment sampler — run only here, with every engine parked. Rack events merely flag or enqueue them. Everything
// else a rack event touches is rack-local by construction: per-rack
// engine, collector, fabric, blades, pools. A borrowed blade's page
// store belongs to the borrowing rack's shard for the duration of the
// lease (the owner retired it from its own tables), which is why data
// can land in it from borrower events.
//
// Determinism: none of this depends on the worker count. Window
// contents are fixed by the event schedule, boundary injection order is
// fixed by arrival time (ties by source rack, then send order), and
// barrier work runs in rack-index order. Serial, 1-worker and N-worker
// execution produce bit-identical simulations; workers only change
// wall-clock time. parexec_test.go enforces this with engine dispatch
// hashes.

import (
	"runtime"
	"sync/atomic"

	"mind/internal/sim"
)

// borrowReq is one queued blade-borrow negotiation: the allocator
// transfer happens at the barrier preceding the window that contains
// due, and done(ok) fires as a borrower event at due.
type borrowReq struct {
	need uint64
	due  sim.Time
	done func(ok bool)
}

// podExec drives a multi-rack pod in lockstep windows.
type podExec struct {
	p *Pod
	// window is the lockstep window width, clamped to the interconnect
	// propagation delay (the conservative lookahead bound).
	window sim.Duration
	// workers is the configured worker-pool width for parallel drives.
	workers int
	// vnow is the pod-wide window cursor: every rack engine sits
	// exactly here between drives.
	vnow sim.Time
	// dense disables the sparse-horizon jump: every 1-window barrier is
	// visited even when provably a no-op. The equivalence suites sweep
	// it to pin sparse execution bit-identical to the dense baseline.
	dense bool

	// wp is the persistent worker pool of parallel drives. It is
	// created lazily on the first parallel drive and survives across
	// drives (RunThreads drives twice, AdvanceTime sampling loops drive
	// per tick) so window handoff reuses spinning or parked helpers
	// instead of spawning a pool per drive; any drive that ends with the
	// pod fully drained releases it, so an idle pod holds no goroutines.
	wp *wpool

	// Barrier-driven sampler (Pod.SampleEvery).
	sampleEvery sim.Duration
	sampleFn    func(sim.Time)
	nextSample  sim.Time

	// Executor observability, read via Pod.WindowStats: windows actually
	// swept, grid windows skipped by the sparse-horizon jump, and
	// barriers whose cross-rack flush was elided (no buffered sends).
	windowsExecuted uint64
	windowsSkipped  uint64
	flushesElided   uint64
}

func newPodExec(p *Pod, window sim.Duration, workers int, dense bool) *podExec {
	prop := p.ic.Config().Propagation
	if window <= 0 || window > prop {
		window = prop
	}
	if workers < 1 {
		workers = 1
	}
	return &podExec{p: p, window: window, workers: workers, dense: dense}
}

// drive advances the pod window by window until stop() reports done,
// evaluated at barriers. A nonzero target caps the final window (used
// by AdvanceTime to land exactly on its deadline); a zero target means
// "until stop", and running dry beforehand is a protocol wedge. When
// parallel is set (and workers, racks and GOMAXPROCS all allow more
// than one participant), windows execute on the persistent worker pool.
//
// In sparse mode (the default) each iteration jumps the cursor directly
// to the window containing the pod's safe horizon (nextBarrier),
// collapsing every provably-empty grid window in between into the
// single barrier at the jump's end. stop() need not be re-evaluated at
// the skipped boundaries: every stop condition used by callers
// (targets, thread counts, serve completion, await flags, idleness) can
// only change through dispatched events or barrier work, and the
// skipped region has neither.
func (x *podExec) drive(parallel bool, target sim.Time, stop func() bool) {
	var wp *wpool
	if parallel {
		if x.wp == nil {
			// One participant per worker, but at most one per rack and
			// one per thread the runtime runs at once.
			if n := min(x.workers, len(x.p.racks), runtime.GOMAXPROCS(0)); n > 1 {
				x.wp = newWpool(x.p.racks, n)
			}
		}
		wp = x.wp
	}
	startExec := x.p.ExecutedEvents()
	for !stop() {
		if target == 0 && x.idle() {
			panic("core: pod drive ran out of events (protocol wedge)")
		}
		end := x.nextBarrier(target)
		if wp != nil {
			wp.run(end)
		} else {
			for _, r := range x.p.racks {
				r.eng.RunWindow(end)
			}
		}
		x.vnow = end
		x.windowsExecuted++
		// Elide the cross-rack merge entirely on a quiet boundary: the
		// pending counter is exact here (workers parked), so skipping
		// FlushBoundary when it is zero delivers the same nothing.
		if x.p.ic.PendingBoundary() > 0 {
			x.p.ic.FlushBoundary()
		} else {
			x.flushesElided++
		}
		x.barrier(end)
		if x.p.ExecutedEvents()-startExec > 2_000_000_000 {
			panic("core: pod drive exceeded event budget")
		}
	}
	// Release the pool once the pod has fully drained: parked workers
	// are cheap between drives of a live run, but an idle pod (between
	// tests, or retired) should hold no goroutines.
	if x.wp != nil && x.idle() {
		x.wp.close()
		x.wp = nil
	}
}

// nextBarrier returns the end of the next window to sweep. Dense mode
// always advances one window (capped at target). Sparse mode jumps
// ahead k windows when the k-1 intermediate grid barriers are provably
// no-ops, which is exactly when every obligation lies at or beyond the
// jump's end:
//
//   - earliest pending event: with every engine parked on vnow and the
//     outboxes empty (the previous barrier flushed), no rack can
//     dispatch before tE = min PeekTime across engines, and no
//     cross-rack send can exist before a dispatch. The jump lands on
//     the grid window containing tE, so skipped windows dispatch
//     nothing, flush nothing, and consume no sequence numbers — the
//     (time, seq) dispatch order is bit-identical to grinding densely.
//     Sends booked inside the final window still arrive at or beyond
//     its boundary (send time >= end-W, propagation >= W).
//   - sampler tick: the dense run fires sampleFn at the first barrier
//     >= nextSample; the jump stops there.
//   - pending fault injection / borrow resolution: each resolves at the
//     first barrier end with at < end+W (podfail.go / barrier); the
//     jump stops at that barrier so injection happens at the same grid
//     point, at the same vnow, as in dense mode.
//   - run target: the final window is capped exactly as dense capping
//     would, so AdvanceTime lands on its deadline and the grid
//     re-anchors there identically.
//
// Serve-termination probes and thread-completion checks need no clamp:
// they are stop() conditions evaluated at barriers, and nothing in a
// skipped region can change them (see drive).
func (x *podExec) nextBarrier(target sim.Time) sim.Time {
	end := x.vnow.Add(x.window)
	if x.dense {
		if target != 0 && end > target {
			end = target
		}
		return end
	}
	k := x.safeJump(target)
	if k > 1 {
		end = x.vnow.Add(x.window * sim.Duration(k))
		x.windowsSkipped += uint64(k - 1)
	}
	if target != 0 && end > target {
		end = target
	}
	return end
}

// safeJump returns how many grid windows the cursor may advance in one
// sweep: the largest k such that no obligation (event dispatch, sampler
// tick, fault injection, borrow resolution) is due at any of the k-1
// intermediate barriers. Returns at least 1. Barrier context only.
func (x *podExec) safeJump(target sim.Time) int64 {
	w := int64(x.window)
	vnow := int64(x.vnow)
	const unbounded = int64(1) << 62
	k := unbounded

	// Earliest pending event across the rack engines. kE is the minimal
	// k with vnow+kW > tE, i.e. the jump's final window contains tE. One
	// pass, exiting on the first rack that forces the adjacent window —
	// an event inside it, or a flagged lease return (wantReturns can
	// only be set by a rack event and is consumed by the barrier
	// immediately after, so it is clear here; if it ever were set, the
	// next barrier must run it). In busy phases some rack nearly always
	// has imminent work, so the sparse check typically costs one peek
	// instead of a full sweep plus the obligation clamps below.
	for _, r := range x.p.racks {
		if r.wantReturns {
			return 1
		}
		t, ok := r.eng.PeekTime()
		if !ok {
			continue
		}
		kE := (int64(t)-vnow)/w + 1
		if kE <= 1 {
			return 1
		}
		if kE < k {
			k = kE
		}
	}
	// Sampler tick: minimal k with vnow+kW >= nextSample.
	if x.sampleFn != nil {
		if d := int64(x.nextSample) - vnow; d > 0 {
			if kS := (d + w - 1) / w; kS < k {
				k = kS
			}
		} else {
			k = 1
		}
	}
	// Fault injections (podfail.go) and borrow resolutions: each is
	// performed by the first barrier end with obligation time < end+W,
	// i.e. minimal k with vnow+kW > at-W.
	if kF := x.faultJumpBound(); kF < k {
		k = kF
	}
	for _, r := range x.p.racks {
		for _, req := range r.pendingBorrows {
			if kB := (int64(req.due)-w-vnow)/w + 1; kB < k {
				k = kB
			}
		}
	}
	if target != 0 {
		// Dense mode reaches target in ceil((target-vnow)/W) windows;
		// never jump past that (nextBarrier caps the final window).
		if kT := (int64(target) - vnow + w - 1) / w; kT < k {
			k = kT
		}
	}
	if k < 1 || k == unbounded {
		// Clamped below a window (an overdue obligation — cannot happen
		// after a correct barrier, but never jump past one), or nothing
		// pending at all with no target (the idle/wedge check in drive
		// owns that case): advance exactly one window.
		return 1
	}
	return k
}

// idle reports whether the pod can make no further progress: every
// engine empty and no queued borrow negotiations. Outboxes are always
// empty here (the previous barrier flushed them).
func (x *podExec) idle() bool {
	for _, r := range x.p.racks {
		if r.eng.Pending() > 0 || len(r.pendingBorrows) > 0 || len(r.pendingFaults) > 0 {
			return false
		}
	}
	return true
}

// barrier is the exclusive section between windows: every rack engine
// is parked on end. It performs the flagged idle-blade returns, the due
// borrow negotiations, and the sampler — in rack-index order, so the
// outcome is independent of how the windows were scheduled.
func (x *podExec) barrier(end sim.Time) {
	// Failure injection precedes the barrier's lease traffic: a fault
	// due inside the next window [end, end+window) becomes ordinary
	// rack events at its exact injection time (podfail.go), before any
	// blade changes hands at this boundary.
	x.injectDueFaults(end.Add(x.window))
	for _, r := range x.p.racks {
		if r.wantReturns {
			r.wantReturns = false
			r.returnIdleBorrowedBlades()
		}
	}
	// A borrow whose due time falls inside the next window [end,
	// end+window) must resolve now; later ones keep waiting. done fires
	// as a normal borrower event at the due time, so threads observe
	// the negotiation RTT exactly.
	horizon := end.Add(x.window)
	for _, r := range x.p.racks {
		if len(r.pendingBorrows) == 0 {
			continue
		}
		rest := r.pendingBorrows[:0]
		for _, req := range r.pendingBorrows {
			if req.due >= horizon {
				rest = append(rest, req)
				continue
			}
			ok := x.p.borrow(r, req.need)
			done := req.done
			r.eng.At(req.due, func() { done(ok) })
		}
		r.pendingBorrows = rest
	}
	if x.sampleFn != nil {
		for x.nextSample <= x.vnow {
			x.sampleFn(x.nextSample)
			x.nextSample = x.nextSample.Add(x.sampleEvery)
		}
	}
}

// wpool executes one window across the racks. The driving goroutine is
// participant 0 and runs its own share inline; participants 1..n-1 are
// helper goroutines. Participant p owns the contiguous rack block
// [p·R/n, (p+1)·R/n) for the pool's lifetime, so a rack's engine is
// only ever touched by one goroutine per drive.
//
// Handoff is two atomics per window instead of channel traffic. The
// driver stores the window end, arms the countdown with the helper
// count and bumps the generation; a helper that observes the new
// generation runs its block and decrements the countdown, and the
// driver returns once it reads zero. Both edges are sync/atomic
// operations, which order the driver's barrier writes before a
// helper's window and each helper's rack mutations before the next
// barrier's reads. Between windows helpers spin on the generation,
// yielding now and then, and park on their wake channel only after
// spinBudget polls, so a pod that is between drives (or stalled in host
// work) costs no CPU.
type wpool struct {
	// own is the driver's block.
	own []*Rack
	// end is the current window's end, published by gen.
	end sim.Time
	// quit, published by gen like end, tells helpers to exit.
	quit bool
	gen  atomic.Uint64
	// pending counts helpers still running the current generation.
	pending atomic.Int32
	helpers []*helper
}

// helper is one parked-or-spinning pool goroutine's wake state. parked
// is set by the helper just before it blocks on wake; whoever clears it
// (the driver publishing a window, or the helper itself on seeing one
// after all) decides whether a wake token is sent, so every token is
// received exactly once.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

const (
	// spinBudget is how many generation polls a waiting helper makes
	// before it parks: enough to cover a barrier between windows, far
	// less than host work between drives.
	spinBudget = 1 << 14
	// spinYield is how often, in polls, a spinning participant yields
	// its processor (runtime.Gosched), so goroutines competing for the
	// runtime's threads still run.
	spinYield = 64
)

// newWpool starts a pool of n participants over racks.
func newWpool(racks []*Rack, n int) *wpool {
	block := func(p int) []*Rack { return racks[p*len(racks)/n : (p+1)*len(racks)/n] }
	wp := &wpool{own: block(0)}
	for p := 1; p < n; p++ {
		h := &helper{wake: make(chan struct{}, 1)}
		wp.helpers = append(wp.helpers, h)
		go wp.help(h, block(p))
	}
	return wp
}

// help is a helper's lifetime: wait for each new generation, run the
// block's window, count down.
func (wp *wpool) help(h *helper, block []*Rack) {
	var seen uint64
	for {
		seen = wp.await(h, seen)
		if wp.quit {
			wp.pending.Add(-1)
			return
		}
		for _, r := range block {
			r.eng.RunWindow(wp.end)
		}
		wp.pending.Add(-1)
	}
}

// await returns the first generation after seen, spinning for
// spinBudget polls and then parking until the driver wakes h.
func (wp *wpool) await(h *helper, seen uint64) uint64 {
	for spins := 1; ; spins++ {
		if g := wp.gen.Load(); g != seen {
			return g
		}
		if spins%spinYield == 0 {
			runtime.Gosched()
		}
		if spins < spinBudget {
			continue
		}
		h.parked.Store(true)
		if g := wp.gen.Load(); g != seen && h.parked.Swap(false) {
			// Published between the last poll and parking, and the
			// driver has not claimed the wake: no token is coming.
			return g
		}
		<-h.wake
		spins = 0
	}
}

// publish starts generation gen+1 for every helper, waking parked ones.
func (wp *wpool) publish() {
	wp.pending.Store(int32(len(wp.helpers)))
	wp.gen.Add(1)
	for _, h := range wp.helpers {
		if h.parked.Load() && h.parked.Swap(false) {
			h.wake <- struct{}{}
		}
	}
}

// wait spins until every helper has counted down the current generation.
func (wp *wpool) wait() {
	for spins := 1; wp.pending.Load() != 0; spins++ {
		if spins%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// run executes one window to end on every rack and returns with every
// engine parked on end.
func (wp *wpool) run(end sim.Time) {
	wp.end = end
	wp.publish()
	for _, r := range wp.own {
		r.eng.RunWindow(end)
	}
	wp.wait()
}

// close stops the helpers and returns once each has left the pool.
func (wp *wpool) close() {
	wp.quit = true
	wp.publish()
	wp.wait()
}
