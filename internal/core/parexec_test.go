package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// equivRun drives one randomized multi-rack workload — borrow on the
// memory-poor rack 0, promotion churn, cross-rack fault traffic — and
// returns everything that must be invariant across worker counts: the
// finish time, each engine's executed-event count and dispatch-trace
// hash, and the merged counter snapshot.
func equivRun(t *testing.T, racks, workers int, window sim.Duration, dense bool) (sim.Time, []uint64, []uint64, map[string]uint64) {
	t.Helper()
	pod := equivPod(t, racks, workers, window, dense)
	end := pod.RunThreads()
	execs, hashes := dispatchTraces(pod)
	return end, execs, hashes, pod.Collector().Snapshot()
}

// dispatchTraces returns each rack engine's executed-event count and
// dispatch-trace hash.
func dispatchTraces(pod *Pod) (execs, hashes []uint64) {
	for i := 0; i < pod.Racks(); i++ {
		execs = append(execs, pod.Rack(i).Engine().Executed)
		hashes = append(hashes, pod.Rack(i).Engine().DispatchHash())
	}
	return execs, hashes
}

// equivPod builds equivRun's pod with every thread started and none yet
// driven.
func equivPod(t *testing.T, racks, workers int, window sim.Duration, dense bool) *Pod {
	t.Helper()
	cfgs := make([]Config, racks)
	cfgs[0] = podRackConfig(2, 1, 1024)
	for i := 1; i < racks; i++ {
		cfgs[i] = podRackConfig(2, 3, 1024)
	}
	pod, err := NewPod(PodConfig{
		Racks:        cfgs,
		Promotion:    PromotionConfig{Epoch: 200 * sim.Microsecond, Threshold: 4},
		Workers:      workers,
		Window:       window,
		DenseWindows: dense,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < racks; i++ {
		pod.Rack(i).Engine().EnableDispatchHash()
	}
	for ri := 0; ri < racks; ri++ {
		r := pod.Rack(ri)
		p := r.Exec("equiv")
		var vma mem.VMA
		if ri == 0 {
			// Fill the only local blade, borrow for the working set,
			// then free local capacity so mid-run promotion (and the
			// eventual lease return) really happen.
			filler, err := p.Mmap(900*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			vma, err = p.Mmap(400*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			if r.BorrowedBlades() == 0 {
				t.Fatal("setup: rack 0 did not borrow")
			}
			if err := p.Munmap(filler.Base); err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			vma, err = p.Mmap(600*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
		}
		pages := vma.Len / mem.PageSize
		for b := 0; b < 2; b++ {
			th, err := p.SpawnThread(b)
			if err != nil {
				t.Fatal(err)
			}
			// Randomized but seeded per (rack, blade, window): every
			// worker count replays the identical access stream.
			rng := sim.NewRNG(uint64(13+ri*8+b)^uint64(window), "parexec-equiv")
			ops := 1500 + int(rng.Uint64n(1500))
			n := 0
			th.Start(func() (mem.VA, bool, bool) {
				if n >= ops {
					return 0, false, false
				}
				n++
				pg := rng.Uint64n(pages)
				return vma.Base + mem.VA(pg*mem.PageSize), rng.Bool(0.3), true
			}, nil)
		}
	}
	return pod
}

// TestParallelEquivalence is the determinism contract of the windowed
// executor: for every pod shape and window width, the dense serial
// baseline (every 1-window barrier visited), dense parallel execution,
// and sparse-horizon execution at every worker count must produce the
// same simulation — same finish time, the same dispatch sequence on
// every engine (event-by-event, via the trace hash), and byte-identical
// merged statistics. The window width itself legitimately changes the
// schedule (boundary-buffered deliveries batch differently), which is
// why equality is asserted across worker counts and sparseness within
// one window, not across windows.
func TestParallelEquivalence(t *testing.T) {
	type variant struct {
		workers int
		dense   bool
	}
	variants := []variant{
		{workers: 4, dense: true},
		{workers: 1, dense: false},
		{workers: 2, dense: false},
		{workers: 4, dense: false},
		{workers: 8, dense: false},
	}
	for _, racks := range []int{2, 3, 5} {
		for _, window := range []sim.Duration{250 * sim.Nanosecond, 500 * sim.Nanosecond, sim.Microsecond} {
			if racks == 5 && window != sim.Microsecond {
				continue
			}
			t.Run(fmt.Sprintf("racks=%d/window=%v", racks, window), func(t *testing.T) {
				vs := variants
				if racks == 5 {
					// Uneven rack blocks (2+3 and 1+2+2) and a worker
					// count past the runtime's threads, at the default
					// window.
					minProcs(t, 3)
					vs = []variant{{workers: 2}, {workers: 3}, {workers: runtime.GOMAXPROCS(0) + 1}}
				}
				endS, execS, hashS, snapS := equivRun(t, racks, 1, window, true)
				for _, v := range vs {
					end, exec, hash, snap := equivRun(t, racks, v.workers, window, v.dense)
					tag := fmt.Sprintf("workers=%d dense=%v", v.workers, v.dense)
					if end != endS {
						t.Errorf("%s: end %v, dense serial %v", tag, end, endS)
					}
					for i := 0; i < racks; i++ {
						if exec[i] != execS[i] || hash[i] != hashS[i] {
							t.Errorf("%s rack %d: executed/hash %d/%#x, dense serial %d/%#x",
								tag, i, exec[i], hash[i], execS[i], hashS[i])
						}
					}
					if len(snap) != len(snapS) {
						t.Errorf("%s: counter sets differ: %d vs %d", tag, len(snap), len(snapS))
					}
					for k, val := range snapS {
						if snap[k] != val {
							t.Errorf("%s: counter %q = %d, dense serial %d", tag, k, snap[k], val)
						}
					}
				}
			})
		}
	}
}

// seededGap is a randomized ArrivalProcess for the serving equivalence
// sweep: gaps are a pure function of the per-(tenant,rack) RNG tag, so
// serial and parallel runs replay the identical arrival stream.
type seededGap struct {
	rng  *sim.RNG
	mean sim.Duration
}

func newSeededGap(tag string, mean sim.Duration) *seededGap {
	return &seededGap{rng: sim.NewRNG(71, "equiv-serve/"+tag), mean: mean}
}

func (g *seededGap) Next(now sim.Time) sim.Duration {
	return sim.Duration(1 + g.rng.Uint64n(uint64(2*g.mean)))
}

// equivServeRun drives one randomized multi-rack serving run — open-loop
// arrivals on every rack, a spanning tenant whose rack-0 share lives on
// borrowed memory, a QoS bucket in the mix — and returns the invariants:
// finish time, per-engine dispatch-trace hashes, and the merged counter
// snapshot.
func equivServeRun(t *testing.T, racks, workers int, window sim.Duration, dense bool) (sim.Time, []uint64, map[string]uint64) {
	t.Helper()
	cfgs := make([]Config, racks)
	cfgs[0] = podRackConfig(2, 1, 1024)
	for i := 1; i < racks; i++ {
		cfgs[i] = podRackConfig(2, 3, 1024)
	}
	pod, err := NewPod(PodConfig{Racks: cfgs, Workers: workers, Window: window, DenseWindows: dense})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < racks; i++ {
		pod.Rack(i).Engine().EnableDispatchHash()
	}
	s, err := NewPodServing(pod, ServeConfig{Horizon: 300 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	addShare := func(name string, rack, blade, pages int, lim *ctrlplane.TokenBucket) {
		p := pod.Rack(rack).Exec(name)
		vma, err := p.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		err = s.AddTenant(TenantWorkload{
			Name:    name,
			Proc:    p,
			Blade:   blade,
			Arrival: newSeededGap(fmt.Sprintf("%s@r%d", name, rack), 5*sim.Microsecond),
			NextOp:  roundRobinOps(vma.Base, uint64(pages)),
			Limiter: lim,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The spanning tenant's rack-0 share lands on borrowed memory: a
	// filler consumes the 4 MB local blade first, so the share's vma
	// (whose pow2-rounded need fits a lender blade) goes cross-rack.
	// Every other rack hosts a local tenant, rack 1's throttled.
	if _, err := pod.Rack(0).Exec("filler").Mmap(900*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	addShare("span", 0, 0, 400, nil)
	addShare("span", 1, 1, 64, nil)
	for i := 1; i < racks; i++ {
		addShare(fmt.Sprintf("solo%d", i), i, 0, 64, nil)
	}
	addShare("gated", 1, 0, 32, ctrlplane.NewTokenBucket(120_000, 8))
	if pod.Rack(0).BorrowedBlades() == 0 {
		t.Fatal("setup: rack 0 did not borrow")
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, racks)
	for i := 0; i < racks; i++ {
		hashes[i] = pod.Rack(i).Engine().DispatchHash()
	}
	return end, hashes, pod.Collector().Snapshot()
}

// TestParallelEquivalenceServing extends the determinism contract to the
// sharded serving layer: with open-loop arrivals injected on every rack
// (including a borrowed-memory spanning share and a token-bucketed
// tenant), the dense serial baseline, dense parallel execution, and
// sparse-horizon execution at every worker count must produce the same
// finish time, the same per-engine dispatch sequence, and byte-identical
// merged statistics at every racks×window point.
func TestParallelEquivalenceServing(t *testing.T) {
	type variant struct {
		workers int
		dense   bool
	}
	variants := []variant{
		{workers: 4, dense: true},
		{workers: 1, dense: false},
		{workers: 2, dense: false},
		{workers: 4, dense: false},
		{workers: 8, dense: false},
	}
	for _, racks := range []int{2, 3} {
		for _, window := range []sim.Duration{250 * sim.Nanosecond, 500 * sim.Nanosecond, sim.Microsecond} {
			t.Run(fmt.Sprintf("racks=%d/window=%v", racks, window), func(t *testing.T) {
				endS, hashS, snapS := equivServeRun(t, racks, 1, window, true)
				for _, v := range variants {
					end, hash, snap := equivServeRun(t, racks, v.workers, window, v.dense)
					tag := fmt.Sprintf("workers=%d dense=%v", v.workers, v.dense)
					if end != endS {
						t.Errorf("%s: end %v, dense serial %v", tag, end, endS)
					}
					for i := 0; i < racks; i++ {
						if hash[i] != hashS[i] {
							t.Errorf("%s rack %d: dispatch hash %#x, dense serial %#x",
								tag, i, hash[i], hashS[i])
						}
					}
					if len(snap) != len(snapS) {
						t.Errorf("%s: counter sets differ: %d vs %d", tag, len(snap), len(snapS))
					}
					for k, val := range snapS {
						if snap[k] != val {
							t.Errorf("%s: counter %q = %d, dense serial %d", tag, k, snap[k], val)
						}
					}
				}
			})
		}
	}
}

// faultOutcomes collects every fault report of one equivFailRun in a
// comparable struct, so serial and parallel runs can be checked for
// bit-identical failure timelines (start, end, pages lost, regions hit
// — and therefore identical Blackout() and detection-delay accounting).
type faultOutcomes struct {
	kill     KillReport
	killErr  string
	rekill   KillReport
	rekilErr string
	drain    DrainReport
	drainErr string
	swch     SwitchFailoverReport
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// equivFailRun drives the equivServeRun serving mix with the request
// robustness layer armed (deadlines, retries with jittered backoff,
// brownout shedding) and a pod-scale kill storm on top: the borrowed
// blade lent to rack 0 dies mid-run (the cross-rack case — its vma has
// no local headroom and is forcibly unmapped, so span requests on rack
// 0 error and burn their retries), the last rack's switch fails over,
// a rack-1 blade drains, and a second kill of the already-dead blade
// must report the same error at the same instant regardless of worker
// count.
func equivFailRun(t *testing.T, racks, workers int, window sim.Duration) (sim.Time, []uint64, map[string]uint64, faultOutcomes) {
	t.Helper()
	cfgs := make([]Config, racks)
	cfgs[0] = podRackConfig(2, 1, 1024)
	for i := 1; i < racks; i++ {
		cfgs[i] = podRackConfig(2, 3, 1024)
	}
	pod, err := NewPod(PodConfig{Racks: cfgs, Workers: workers, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < racks; i++ {
		pod.Rack(i).Engine().EnableDispatchHash()
	}
	s, err := NewPodServing(pod, ServeConfig{
		Horizon:      300 * sim.Microsecond,
		Deadline:     40 * sim.Microsecond,
		MaxRetries:   2,
		RetryBackoff: 2 * sim.Microsecond,
		Brownout:     0.4,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	addShare := func(name string, rack, blade, pages int, lim *ctrlplane.TokenBucket) mem.VMA {
		p := pod.Rack(rack).Exec(name)
		vma, err := p.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		err = s.AddTenant(TenantWorkload{
			Name:    name,
			Proc:    p,
			Blade:   blade,
			Arrival: newSeededGap(fmt.Sprintf("fail/%s@r%d", name, rack), 5*sim.Microsecond),
			NextOp:  roundRobinOps(vma.Base, uint64(pages)),
			Limiter: lim,
		})
		if err != nil {
			t.Fatal(err)
		}
		return vma
	}
	if _, err := pod.Rack(0).Exec("filler").Mmap(900*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	spanVMA := addShare("span", 0, 0, 400, nil)
	addShare("span", 1, 1, 64, nil)
	var solo1VMA mem.VMA
	for i := 1; i < racks; i++ {
		vma := addShare(fmt.Sprintf("solo%d", i), i, 0, 64, nil)
		if i == 1 {
			solo1VMA = vma
		}
	}
	addShare("gated", 1, 0, 32, ctrlplane.NewTokenBucket(120_000, 8))
	if pod.Rack(0).BorrowedBlades() == 0 {
		t.Fatal("setup: rack 0 did not borrow")
	}
	// The kill victim is the span share's borrowed home blade; a few of
	// its pages are materialized directly so the kill has real bytes to
	// lose (serving writes sit in the compute-blade caches this early).
	victim, err := pod.Rack(0).Controller().Allocator().Translate(spanVMA.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !pod.Rack(0).remoteBlade(victim) {
		t.Fatal("setup: span share not on a borrowed blade")
	}
	buf := make([]byte, mem.PageSize)
	for i := 0; i < 32; i++ {
		buf[0] = byte(i)
		pod.Rack(0).MemBlade(int(victim)).WritePage(spanVMA.Base+mem.VA(i)*mem.PageSize, buf)
	}
	// The drain victim is solo1's home on rack 1 — a live local blade
	// there (the lent blade is dead by drain time and must not be it).
	drainVictim, err := pod.Rack(1).Controller().Allocator().Translate(solo1VMA.Base)
	if err != nil {
		t.Fatal(err)
	}

	// Setup (mmaps, the borrow negotiation) advances virtual time
	// deterministically; the storm is timed relative to the run start.
	base := pod.Now()
	var out faultOutcomes
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(pod.KillMemBladeAt(0, victim, base.Add(60*sim.Microsecond), func(r KillReport, e error) {
		out.kill, out.killErr = r, errString(e)
	}))
	must(pod.KillSwitchAt(racks-1, base.Add(80*sim.Microsecond), func(r SwitchFailoverReport, e error) {
		out.swch = r
		if e != nil {
			t.Errorf("switch failover: %v", e)
		}
	}))
	must(pod.DrainMemBladeAt(1, drainVictim, base.Add(120*sim.Microsecond), func(r DrainReport, e error) {
		out.drain, out.drainErr = r, errString(e)
	}))
	must(pod.KillMemBladeAt(0, victim, base.Add(200*sim.Microsecond), func(r KillReport, e error) {
		out.rekill, out.rekilErr = r, errString(e)
	}))

	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, racks)
	for i := 0; i < racks; i++ {
		hashes[i] = pod.Rack(i).Engine().DispatchHash()
	}
	snap := pod.Collector().Snapshot()

	// Structural checks every run must satisfy, at any worker count.
	if out.killErr != "" {
		t.Errorf("borrowed-blade kill failed: %s", out.killErr)
	}
	if out.kill.PagesLost == 0 || out.kill.Blackout() <= 0 {
		t.Errorf("implausible borrowed-blade kill report: %+v", out.kill)
	}
	if out.rekilErr == "" {
		t.Error("second kill of the dead blade reported no error")
	}
	if out.drainErr != "" {
		t.Errorf("drain failed: %s", out.drainErr)
	}
	if out.swch.Blackout() <= 0 {
		t.Errorf("implausible switch failover report: %+v", out.swch)
	}
	arr := snap[stats.CtrServeArrivals]
	settled := snap[stats.CtrServeCompleted] + snap[stats.CtrServeThrottled] +
		snap[stats.CtrServeDropped] + snap[stats.CtrServeShed] +
		snap[stats.CtrServeTimedOut] + snap[stats.CtrServeFailed]
	if arr != settled {
		t.Errorf("request conservation violated: %d arrivals, %d settled", arr, settled)
	}
	if snap[stats.CtrServeTimedOut] == 0 && snap[stats.CtrServeFailed] == 0 {
		t.Error("kill storm produced no timed-out or failed requests")
	}
	if snap[stats.CtrServeShed] == 0 {
		t.Error("brownout shed nothing during recovery blackout")
	}
	if snap[stats.CtrBladeKills] == 0 || snap[stats.CtrBladeRecoveries] == 0 {
		t.Error("kill/recovery counters silent")
	}
	return end, hashes, snap, out
}

// TestParallelEquivalenceFailures extends the determinism contract to
// failure injection: with blade kills (including the borrowed-blade
// cross-rack case), a switch failover and a drain landing mid-run in a
// robust serving mix, serial and parallel execution must produce the
// same finish time, per-engine dispatch sequences, merged statistics,
// and bit-identical fault reports (same Start/End — so the same
// Blackout() and detection-delay accounting — same pages lost, same
// errors).
func TestParallelEquivalenceFailures(t *testing.T) {
	for _, racks := range []int{2, 3, 5} {
		for _, window := range []sim.Duration{250 * sim.Nanosecond, sim.Microsecond} {
			t.Run(fmt.Sprintf("racks=%d/window=%v", racks, window), func(t *testing.T) {
				if racks == 5 {
					minProcs(t, 3)
				}
				endS, hashS, snapS, outS := equivFailRun(t, racks, 1, window)
				for _, workers := range []int{2, 3, 4, 8, runtime.GOMAXPROCS(0) + 1} {
					end, hash, snap, out := equivFailRun(t, racks, workers, window)
					if end != endS {
						t.Errorf("workers=%d: end %v, serial %v", workers, end, endS)
					}
					for i := 0; i < racks; i++ {
						if hash[i] != hashS[i] {
							t.Errorf("workers=%d rack %d: dispatch hash %#x, serial %#x",
								workers, i, hash[i], hashS[i])
						}
					}
					if out != outS {
						t.Errorf("workers=%d: fault outcomes diverged:\n  parallel %+v\n  serial   %+v", workers, out, outS)
					}
					if len(snap) != len(snapS) {
						t.Errorf("workers=%d: counter sets differ: %d vs %d", workers, len(snap), len(snapS))
					}
					for k, v := range snapS {
						if snap[k] != v {
							t.Errorf("workers=%d: counter %q = %d, serial %d", workers, k, snap[k], v)
						}
					}
				}
			})
		}
	}
}

// TestWorkerPoolParkWake pins the pool's lifecycle across drives. A
// parallel pod driven by AdvanceTime in grid-aligned steps keeps one
// pool; each pause between steps lasts until every helper has spun out
// its budget and parked, so each next drive must wake them. The stepped
// run must dispatch exactly what the same stepped schedule dispatches
// serially, and the drive that leaves the pod idle releases the
// helpers. The worker count exceeds GOMAXPROCS, so the pool is clamped
// to the racks and the runtime's threads.
func TestWorkerPoolParkWake(t *testing.T) {
	minProcs(t, 2)
	const racks = 3
	window := 500 * sim.Nanosecond
	stepped := func(workers int, pause func(*Pod)) ([]uint64, []uint64) {
		pod := equivPod(t, racks, workers, window, false)
		for i := 0; i < 8; i++ {
			pod.AdvanceTime(40 * window)
			pause(pod)
		}
		pod.RunThreads()
		return dispatchTraces(pod)
	}
	execS, hashS := stepped(1, func(*Pod) {})

	start := runtime.NumGoroutine()
	workers := runtime.GOMAXPROCS(0) + 1
	exec, hash := stepped(workers, func(pod *Pod) {
		wp := pod.exec.wp
		if wp == nil {
			t.Fatal("worker pool released while the pod is live")
		}
		if n, want := len(wp.helpers)+1, min(racks, runtime.GOMAXPROCS(0)); n != want {
			t.Fatalf("pool has %d participants, want %d", n, want)
		}
		parked := func() bool {
			for _, h := range wp.helpers {
				if !h.parked.Load() {
					return false
				}
			}
			return true
		}
		if !eventually(parked) {
			t.Fatal("idle helpers never parked")
		}
	})
	for i := range execS {
		if exec[i] != execS[i] || hash[i] != hashS[i] {
			t.Errorf("rack %d: executed/hash %d/%#x, serial %d/%#x",
				i, exec[i], hash[i], execS[i], hashS[i])
		}
	}
	if !eventually(func() bool { return runtime.NumGoroutine() <= start }) {
		t.Errorf("%d goroutines after the pod went idle, %d before it was built",
			runtime.NumGoroutine(), start)
	}
}

// minProcs raises GOMAXPROCS to at least n for the rest of the test, so
// the pool's participant count, which the runtime's threads clamp, does
// not depend on the host's CPUs.
func minProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// eventually polls cond for up to a second of host time.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// TestSparseWindowStats pins the executor's work accounting. Idling a
// pod whose only traffic is the 500 µs promotion epoch ticks leaves
// almost every 1 µs grid window empty: the sparse run must skip most of
// them and elide every quiet boundary's flush, the dense run must skip
// none, and the two must agree on the total grid (executed + skipped)
// — the same virtual span, just fewer barriers.
func TestSparseWindowStats(t *testing.T) {
	mk := func(dense bool) *Pod {
		pod, err := NewPod(PodConfig{
			Racks:        []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024)},
			DenseWindows: dense,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pod
	}
	sparse := mk(false)
	sparse.AdvanceTime(2 * sim.Millisecond)
	sx, ss, sf := sparse.WindowStats()
	if ss == 0 {
		t.Error("sparse idle run skipped no windows")
	}
	if sf == 0 {
		t.Error("sparse idle run elided no flushes")
	}
	dense := mk(true)
	dense.AdvanceTime(2 * sim.Millisecond)
	dx, ds, _ := dense.WindowStats()
	if ds != 0 {
		t.Errorf("dense run skipped %d windows, want 0", ds)
	}
	if sx+ss != dx {
		t.Errorf("sparse grid %d executed + %d skipped != dense %d executed", sx, ss, dx)
	}
	if sx >= dx {
		t.Errorf("sparse executed %d windows, want fewer than dense's %d", sx, dx)
	}
}

// TestPodWindowClamp pins the lookahead bound: a configured window wider
// than the interconnect propagation delay must be clamped to it, and a
// zero window must default to it.
func TestPodWindowClamp(t *testing.T) {
	mk := func(window sim.Duration) *Pod {
		pod, err := NewPod(PodConfig{
			Racks:  []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024)},
			Window: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pod
	}
	prop := mk(0).Interconnect().Config().Propagation
	if got := mk(0).exec.window; got != prop {
		t.Errorf("zero window defaulted to %v, want propagation %v", got, prop)
	}
	if got := mk(10 * prop).exec.window; got != prop {
		t.Errorf("oversized window clamped to %v, want propagation %v", got, prop)
	}
	if got := mk(prop / 4).exec.window; got != prop/4 {
		t.Errorf("narrow window = %v, want %v", got, prop/4)
	}
}
