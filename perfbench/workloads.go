package main

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/workloads"
)

// workload is one benchmark input shape. setup builds a fresh
// simulation from the seed — topology, placement, mmaps, borrowing,
// generators, page materialisation — and returns it ready to drive.
type workload struct {
	name string
	// workers is the pod executor's worker count (1: serial).
	workers int
	setup   func(tr *tracer, seed uint64, scale float64, workers int) (*instance, error)
}

var allWorkloads = []workload{
	{name: "rack-gc", workers: 1, setup: setupRackGC},
	{name: "pod-mix", workers: 2, setup: setupPodMix},
	{name: "serve-pod", workers: 1, setup: setupServePod},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want rack-gc, pod-mix or serve-pod)", name)
}

// instance is a set-up simulation.
type instance struct {
	pod *core.Pod
	// drive is the timed call: Pod.RunThreads or Serving.Run.
	drive func() (sim.Time, error)
	// closedOps is the number of accesses a closed loop must complete
	// (0 for the open loop).
	closedOps uint64
	// crossRack marks workloads that must borrow blades and route
	// cross-rack messages.
	crossRack bool
	serve     *serveState
}

// serveState is what the open loop's checks and metrics need after the
// drive.
type serveState struct {
	tenants []string
	spanned int
	storm   storm
}

// storm records the fault callbacks of serve-pod's fault storm.
type storm struct {
	killFired, switchFired, drainFired bool
	killErr, switchErr, drainErr       error
	kill                               core.KillReport
	failover                           core.SwitchFailoverReport
	drain                              core.DrainReport
}

// scaled multiplies a size by the run-length scale, keeping it >= min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		return min
	}
	return v
}

// Memory tiers of the pod workloads: a memory-poor rack has one 32 MB
// blade (smaller than either workload's footprint), a lender rack three
// 128 MB blades.
const (
	borrowerCap = 1 << 25
	lenderCap   = 1 << 27
)

// setupRackGC builds rack-gc: one rack, 64 compute blades × 4 threads,
// 8 memory blades, the GC mix at ×4 footprint, caches of ¼ footprint.
func setupRackGC(tr *tracer, seed uint64, scale float64, workers int) (*instance, error) {
	const blades, threads = 64, 256
	opsPerThread := scaled(3000, scale, 8)
	var w workloads.Workload
	tr.do("workloads", "GC", func() { w = workloads.GC(4) })
	cfg := core.DefaultConfig(blades, 8)
	cfg.MemoryBladeCapacity = 1 << 30
	cfg.CachePagesPerBlade = int(w.Footprint/mem.PageSize) / 4
	cfg.Seed = seed
	var pod *core.Pod
	var err error
	tr.do("core", "NewPod", func() { pod, err = core.NewPod(core.PodConfig{Racks: []core.Config{cfg}, Workers: workers}) })
	if err != nil {
		return nil, err
	}
	params := workloads.Params{Threads: threads, Blades: blades, OpsPerThread: opsPerThread, Seed: seed}
	if err := startRack(tr, pod, 0, w, params); err != nil {
		return nil, err
	}
	return &instance{
		pod:       pod,
		drive:     func() (sim.Time, error) { return pod.RunThreads(), nil },
		closedOps: uint64(threads * opsPerThread),
	}, nil
}

// startRack maps w's footprint on rack ri, builds one generator per
// thread and starts the threads (they run when the pod is driven).
func startRack(tr *tracer, pod *core.Pod, ri int, w workloads.Workload, params workloads.Params) error {
	var p *core.Process
	tr.do("core", "Exec", func() { p = pod.Rack(ri).Exec(fmt.Sprintf("%s-r%d", w.Name, ri)) })
	var vma mem.VMA
	var err error
	tr.do("ctrlplane", "Mmap", func() { vma, err = p.Mmap(w.Footprint, mem.PermReadWrite) })
	if err != nil {
		return fmt.Errorf("rack %d mmap: %w", ri, err)
	}
	for k := 0; k < params.Threads; k++ {
		var th *core.Thread
		tr.do("core", "SpawnThread", func() { th, err = p.SpawnThread(k % params.Blades) })
		if err != nil {
			return err
		}
		var gen core.AccessGen
		tr.do("workloads", "Gen", func() { gen = w.Gen(vma.Base, k, params) })
		gen = tr.accessGen(gen)
		tr.do("core", "Thread.Start", func() { th.Start(gen, nil) })
	}
	return nil
}

// podRacks shapes a pod whose first half of racks are memory-poor and
// borrow from the second half.
func podRacks(racks, blades int, seed uint64, cachePages func(ri int) int) []core.Config {
	cfgs := make([]core.Config, racks)
	for ri := range cfgs {
		rc := core.DefaultConfig(blades, 1)
		if ri < racks/2 {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 1, borrowerCap
		} else {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 3, lenderCap
		}
		rc.CachePagesPerBlade = cachePages(ri)
		rc.Seed = seed
		cfgs[ri] = rc
	}
	return cfgs
}

// setupPodMix builds pod-mix: 32 racks × 8 blades × 8 threads, racks
// alternating GC and MA at ×4 footprint, the first half borrowing.
func setupPodMix(tr *tracer, seed uint64, scale float64, workers int) (*instance, error) {
	const racks, blades, threadsPerRack = 32, 8, 8
	opsPerThread := scaled(1000, scale, 8)
	mixes := make([]workloads.Workload, 2)
	tr.do("workloads", "GC+MA", func() { mixes[0], mixes[1] = workloads.GC(4), workloads.MemcachedA(4) })
	cfgs := podRacks(racks, blades, seed, func(ri int) int {
		return int(mixes[ri%2].Footprint/mem.PageSize) / 4
	})
	var pod *core.Pod
	var err error
	tr.do("core", "NewPod", func() { pod, err = core.NewPod(core.PodConfig{Racks: cfgs, Workers: workers}) })
	if err != nil {
		return nil, err
	}
	for ri := 0; ri < racks; ri++ {
		params := workloads.Params{
			Threads:      threadsPerRack,
			Blades:       blades,
			OpsPerThread: opsPerThread,
			Seed:         seed + uint64(ri)*1021,
		}
		if err := startRack(tr, pod, ri, mixes[ri%2], params); err != nil {
			return nil, err
		}
	}
	return &instance{
		pod:       pod,
		drive:     func() (sim.Time, error) { return pod.RunThreads(), nil },
		closedOps: uint64(racks * threadsPerRack * opsPerThread),
		crossRack: true,
	}, nil
}

// serve-pod traffic: per-class arrival rates (requests/s) and contracted
// QoS rates. The MMPP class's burst mean exceeds its contract, so QoS
// throttling happens on every run; span tenants are heavy steady
// tenants whose hot sets exceed one rack's admission headroom.
const (
	steadyRate   = 100_000
	quietRate    = 50_000
	burstRate    = 1_000_000
	quietDwellS  = 50e-6
	burstDwellS  = 20e-6
	diurnalRate  = 100_000
	diurnalSwing = 0.8
	spanRate     = 300_000
	classLimit   = 150_000
	spanLimit    = 450_000
	bucketDepth  = 64
)

// setupServePod builds serve-pod: 16 racks × 8 blades serving 24
// Poisson/MMPP/diurnal tenants plus two rack-spanning tenants, with
// deadlines, bounded retries and brownout on, and a fault storm at
// fixed fractions of the horizon: a borrowed blade dies (30%), a switch
// fails over (50%) and a blade drains live (65%).
func setupServePod(tr *tracer, seed uint64, scale float64, workers int) (*instance, error) {
	const racks, blades = 16, 8
	const normals, spans = racks * 3 / 2, 2
	var w workloads.Workload
	tr.do("workloads", "MemcachedA", func() { w = workloads.MemcachedA(1) })

	mmppMean := (quietRate*quietDwellS + burstRate*burstDwellS) / (quietDwellS + burstDwellS)
	meanRate := normals/3*(steadyRate+mmppMean+diurnalRate) + spans*spanRate
	arrivals := float64(scaled(600_000, scale, 2000))
	H := sim.Duration(arrivals / meanRate * float64(sim.Second))
	deadline := H / 200

	cfgs := podRacks(racks, blades, seed, func(int) int { return int(w.Footprint/mem.PageSize) / 4 })
	for i := range cfgs {
		// Slow detection so the kill's blackout is a visible share of
		// the run; the deadline sits well under it.
		cfgs[i].Migration.DetectionDelay = H / 40
	}
	var pod *core.Pod
	var err error
	tr.do("core", "NewPod", func() { pod, err = core.NewPod(core.PodConfig{Racks: cfgs, Workers: workers}) })
	if err != nil {
		return nil, err
	}

	specs := make([]ctrlplane.TenantSpec, 0, normals+spans)
	names := make([]string, 0, normals+spans)
	for i := 0; i < normals; i++ {
		name := fmt.Sprintf("%s%d", [3]string{"steady", "burst", "diurnal"}[i%3], i/3)
		specs = append(specs, ctrlplane.TenantSpec{
			Name: name, Footprint: w.Footprint, Active: w.Footprint / 2,
			RatePerSec: classLimit, Burst: bucketDepth,
		})
		names = append(names, name)
	}
	for i := 0; i < spans; i++ {
		name := fmt.Sprintf("span%d", i)
		specs = append(specs, ctrlplane.TenantSpec{
			Name: name, Footprint: 3 * w.Footprint, Active: 3 * w.Footprint,
			RatePerSec: spanLimit, Burst: bucketDepth,
		})
		names = append(names, name)
	}
	var placements []ctrlplane.PodPlacement
	tr.do("ctrlplane", "PlaceTenantsPod", func() {
		placements, err = ctrlplane.PlaceTenantsPod(specs, racks, blades, 2*w.Footprint, 2)
	})
	if err != nil {
		return nil, fmt.Errorf("tenant placement: %w", err)
	}

	var s *core.Serving
	tr.do("core", "NewPodServing", func() {
		s, err = core.NewPodServing(pod, core.ServeConfig{
			Horizon:      H,
			QueueCap:     1 << 16,
			Deadline:     deadline,
			MaxRetries:   2,
			RetryBackoff: deadline / 10,
			Brownout:     0.5,
			Seed:         seed,
		})
	})
	if err != nil {
		return nil, err
	}

	st := &serveState{tenants: names}
	type share struct {
		rack int
		vma  mem.VMA
	}
	var shares []share
	params := workloads.Params{Threads: len(specs), Blades: blades, Seed: seed}
	stream := 0
	for ti, pl := range placements {
		if pl.Spans() {
			st.spanned++
		}
		for si, sh := range pl.Shares {
			// One process, vma and arrival chain per (tenant, rack)
			// share; the RNG tag carries the rack.
			tag := fmt.Sprintf("%s@r%d", pl.Spec.Name, sh.Rack)
			var p *core.Process
			tr.do("core", "Exec", func() { p = pod.Rack(sh.Rack).Exec(tag) })
			footprint := sh.Footprint
			if footprint < mem.PageSize {
				footprint = mem.PageSize
			}
			var vma mem.VMA
			tr.do("ctrlplane", "Mmap", func() { vma, err = p.Mmap(footprint, mem.PermReadWrite) })
			if err != nil {
				return nil, fmt.Errorf("share %s mmap: %w", tag, err)
			}
			shares = append(shares, share{rack: sh.Rack, vma: vma})
			var arr core.ArrivalProcess
			var next func() (mem.VA, bool)
			tr.do("workloads", "arrivals", func() {
				switch {
				case ti >= normals:
					arr = workloads.NewPoisson(seed, tag, spanRate*sh.Share)
				case ti%3 == 0:
					arr = workloads.NewPoisson(seed, tag, steadyRate*sh.Share)
				case ti%3 == 1:
					arr = workloads.NewMMPP(seed, tag, quietRate*sh.Share, burstRate*sh.Share, quietDwellS, burstDwellS)
				default:
					arr = workloads.NewDiurnal(seed, tag, diurnalRate*sh.Share, diurnalSwing, 2*sim.Millisecond)
				}
			})
			tr.do("workloads", "RequestStreamIn", func() { next = workloads.RequestStreamIn(w, vma.Base, vma.Len, stream, params) })
			tr.do("core", "AddTenant", func() {
				err = s.AddTenant(core.TenantWorkload{
					Name:    pl.Spec.Name,
					Proc:    p,
					Blade:   sh.Blade,
					Arrival: tr.arrival(arr),
					NextOp:  tr.nextOp(next),
					Limiter: pl.Bucket(si),
				})
			})
			if err != nil {
				return nil, err
			}
			stream++
		}
	}

	// Storm victims: the first share homed on a borrowed blade, and the
	// first share on a lender rack whose blade the rack's other live
	// blades can absorb (drained live).
	homeOf := func(sh share) (ctrlplane.BladeID, error) {
		var id ctrlplane.BladeID
		var err error
		tr.do("ctrlplane", "Translate", func() { id, err = pod.Rack(sh.rack).Controller().Allocator().Translate(sh.vma.Base) })
		return id, err
	}
	kill, drain := -1, -1
	var killBlade, drainBlade ctrlplane.BladeID
	for i, sh := range shares {
		id, err := homeOf(sh)
		if err != nil {
			return nil, err
		}
		local := ctrlplane.BladeID(cfgs[sh.rack].MemoryBlades)
		if kill < 0 && sh.rack < racks/2 && id >= local {
			kill, killBlade = i, id
		}
		if drain < 0 && sh.rack >= racks/2 && drainable(pod.Rack(sh.rack).Controller().Allocator(), id) {
			drain, drainBlade = i, id
		}
	}
	if kill < 0 || drain < 0 {
		return nil, fmt.Errorf("no borrowed-blade share or lender share to fault (shape drifted)")
	}
	// The failover hits a lender rack other than the drained one.
	switchRack := racks/2 + (shares[drain].rack-racks/2+1)%(racks/2)

	// Materialise the victims' first pages so the kill loses real pages
	// and the drain moves real bytes.
	tr.do("core", "materialize", func() {
		buf := make([]byte, mem.PageSize)
		for _, v := range []struct {
			sh   share
			home ctrlplane.BladeID
		}{{shares[kill], killBlade}, {shares[drain], drainBlade}} {
			pages := int(v.sh.vma.Len / mem.PageSize)
			if pages > 512 {
				pages = 512
			}
			alloc := pod.Rack(v.sh.rack).Controller().Allocator()
			for i := 0; i < pages; i++ {
				va := v.sh.vma.Base + mem.VA(i)*mem.PageSize
				if home, err := alloc.Translate(va); err != nil || home != v.home {
					continue
				}
				binary.LittleEndian.PutUint64(buf, uint64(i+1))
				pod.Rack(v.sh.rack).MemBlade(int(v.home)).WritePage(va, buf)
			}
		}
	})

	base := pod.Now()
	sm := &st.storm
	tr.do("core", "KillMemBladeAt", func() {
		err = pod.KillMemBladeAt(shares[kill].rack, killBlade, base.Add(H*3/10), func(r core.KillReport, e error) {
			sm.killFired, sm.kill, sm.killErr = true, r, e
		})
	})
	if err != nil {
		return nil, err
	}
	tr.do("core", "KillSwitchAt", func() {
		err = pod.KillSwitchAt(switchRack, base.Add(H*5/10), func(r core.SwitchFailoverReport, e error) {
			sm.switchFired, sm.failover, sm.switchErr = true, r, e
		})
	})
	if err != nil {
		return nil, err
	}
	tr.do("core", "DrainMemBladeAt", func() {
		err = pod.DrainMemBladeAt(shares[drain].rack, drainBlade, base.Add(H*65/100), func(r core.DrainReport, e error) {
			sm.drainFired, sm.drain, sm.drainErr = true, r, e
		})
	})
	if err != nil {
		return nil, err
	}
	return &instance{
		pod:       pod,
		drive:     s.Run,
		crossRack: true,
		serve:     st,
	}, nil
}

// drainable reports whether blade id's vmas fit, largest first, on the
// free space of the rack's other live blades.
func drainable(a *ctrlplane.Allocator, id ctrlplane.BladeID) bool {
	var free []uint64
	for b := 0; b < a.Blades(); b++ {
		bid := ctrlplane.BladeID(b)
		if bid == id || a.BladeRetired(bid) || !a.BladeAvailable(bid) {
			continue
		}
		capacity, err1 := a.BladeCapacity(bid)
		used, err2 := a.BladeAllocatedBytes(bid)
		if err1 != nil || err2 != nil || used > capacity {
			continue
		}
		free = append(free, capacity-used)
	}
	var need []uint64
	for _, base := range a.AllocationsOn(id) {
		r, err := a.Reserved(base)
		if err != nil {
			return false
		}
		need = append(need, r)
	}
	sort.Slice(need, func(i, j int) bool { return need[i] > need[j] })
	for _, n := range need {
		sort.Slice(free, func(i, j int) bool { return free[i] > free[j] })
		if len(free) == 0 || free[0] < n {
			return false
		}
		free[0] -= n
	}
	return true
}
