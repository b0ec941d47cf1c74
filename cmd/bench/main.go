// Command bench runs the hot-path macro benchmarks (internal/hotpath) and
// maintains the BENCH_*.json performance-trajectory files.
//
// Seven scenarios are tracked (-scenario):
//
//	hotpath   the 8-blade per-op cost probe            -> BENCH_hotpath.json
//	rack      the 64-blade x 4-thread scale probe      -> BENCH_rack.json
//	pod       the 4-rack cross-rack memory probe       -> BENCH_pod.json
//	podpar    the 32-rack parallel-executor probe      -> BENCH_podpar.json
//	serve     the open-loop multi-tenant serving probe -> BENCH_serve.json
//	servepar  the 16-rack sharded-serving probe        -> BENCH_servepar.json
//	servekill the kill-storm robust-serving probe      -> BENCH_servekill.json
//
// Each JSON report keeps two entries: "baseline" (the recorded reference
// point) and "current" (the latest run). Every record is stamped with the
// scenario name, Go version, and GOOS/GOARCH it was measured under.
// Regenerate with:
//
//	go run ./cmd/bench -scenario hotpath -out BENCH_hotpath.json
//	go run ./cmd/bench -scenario rack    -out BENCH_rack.json
//	go run ./cmd/bench -scenario pod     -out BENCH_pod.json
//	go run ./cmd/bench -scenario podpar  -out BENCH_podpar.json
//	go run ./cmd/bench -scenario serve   -out BENCH_serve.json
//	go run ./cmd/bench -scenario servepar -out BENCH_servepar.json
//	go run ./cmd/bench -scenario servekill -out BENCH_servekill.json
//
// The baseline block is the trajectory anchor: it is only ever written on
// the very first run against a file, or when -rebaseline explicitly
// promotes the new measurement. A report whose stored scenario does not
// match -scenario is refused outright. -check verifies the improvement
// claims against the stored baseline (allocs/op and events/sec ratios are
// properties of the code, not the host, so the gates are stable in CI).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mind/internal/hotpath"
)

type entry struct {
	Label     string `json:"label"`
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	CPUs      int    `json:"cpus,omitempty"`
	hotpath.Result
}

type improvement struct {
	AllocsPerOpPct  float64 `json:"allocs_per_op_pct"`
	NsPerOpPct      float64 `json:"ns_per_op_pct"`
	EventsPerSecRel float64 `json:"events_per_sec_x"`
}

type report struct {
	Benchmark   string       `json:"benchmark"`
	Scenario    string       `json:"scenario,omitempty"`
	Description string       `json:"description"`
	Baseline    *entry       `json:"baseline,omitempty"`
	Current     *entry       `json:"current,omitempty"`
	Improvement *improvement `json:"improvement,omitempty"`
}

func pct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - cur) / base * 100
}

var descriptions = map[string]string{
	"hotpath": "Fixed Fig-6-class workload (TF, 8 compute blades, 1 thread/blade, " +
		"seed-pinned): host-side cost per simulated access and event throughput. " +
		"Simulation outputs (ops/events/remote rate/virtual end) are deterministic " +
		"and double as a cross-revision identity check.",
	"rack": "Rack-scale Fig-6-class workload (GC/PageRank mix, x4 footprint, 64 " +
		"compute blades, 4 threads/blade, 8 memory blades, seed-pinned): event " +
		"throughput with rack-wide sharer sets and a deep event queue. The baseline " +
		"block records the pre-calendar-queue heap+map hot path on the same workload.",
	"pod": "Pod-scale mixed workload (4 racks x 16 compute blades, GC+Memcached/YCSB-A " +
		"alternating per rack, seed-pinned): racks 0-1 exhaust their single local " +
		"memory blade and borrow capacity from racks 2-3, so their faults are routed " +
		"through both ToR switches and the bounded-bandwidth interconnect. Pins the " +
		"host-side cost of the pod topology layer (cross-rack hop chains are pooled).",
	"serve": "Open-loop multi-tenant serving probe (3 tenants on a 4-blade rack, " +
		"seed-pinned): a steady Poisson tenant, an MMPP burst aggressor held to a " +
		"QoS token bucket, and a diurnal tenant, each an independent arrival chain " +
		"injected into the engine. Arrival/completion/throttle/drop counts and the " +
		"steady tenant's p99 sojourn are deterministic identity checks; allocs/op " +
		"pins the pooled request path and the streaming histograms.",
	"podpar": "Parallel-executor probe (32 racks x 8 compute blades, GC+Memcached/YCSB-A " +
		"alternating per rack, half the racks borrowing, seed-pinned): the same pod " +
		"simulation run serially and on the windowed worker pool in one invocation. " +
		"The two runs must agree on every simulation output (the determinism " +
		"contract), and parallel_speedup records the events/sec ratio — the tentpole " +
		"claim of the conservative-lookahead executor. The ratio is host-relative: " +
		"it only exceeds 1 when the host grants the workers real cores (see the " +
		"cpus stamp), so -check gates it only on hosts with cpus >= workers.",
	"servepar": "Sharded-serving probe (16 racks x 8 compute blades, seed-pinned): a " +
		"mixed Poisson/MMPP/diurnal tenant population placed across the pod by the " +
		"pod-wide control plane — the first half of the racks are memory-poor and " +
		"borrow blades, and two oversized tenants span racks, so cross-rack faults " +
		"exercise the interconnect while every rack's serving shard injects its own " +
		"arrival streams. The same run executes serially and on the windowed worker " +
		"pool in one invocation; any simulation-output divergence fails the run " +
		"(no speedup is reported), and parallel_speedup records the events/sec " +
		"ratio. Host-relative like podpar: -check gates the ratio only on full-ops " +
		"runs where the host grants the workers real cores.",
	"servekill": "Failure-injection probe (2-rack pod, seed-pinned): rack 0 is " +
		"memory-poor so its victim tenant's share sits on a borrowed blade, and a " +
		"kill storm lands mid-run — a hot-added blade, the borrowed blade's death " +
		"(cross-rack re-home), a switch failover and a live drain — while three " +
		"open-loop tenants are served under per-request deadlines, bounded retries " +
		"and brownout shedding. The terminal request accounting (shed, timed out, " +
		"retried; arrivals settle exactly once) and kills == recoveries are " +
		"deterministic identity checks; allocs/op pins the recovery machinery " +
		"under load.",
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	scenario := flag.String("scenario", "hotpath", "tracked scenario to run (hotpath, rack, pod, podpar, serve, servepar or servekill)")
	ops := flag.Int("ops", 0, "total accesses across all threads (0 = scenario default)")
	workers := flag.Int("workers", 0, "pod executor worker count for multi-rack scenarios (0 = scenario default)")
	out := flag.String("out", "", "JSON report to update (read-modify-write; empty = print only)")
	label := flag.String("label", "current", "label for this measurement")
	rebaseline := flag.Bool("rebaseline", false, "also record this run as the new baseline")
	check := flag.Bool("check", false, "fail unless the scenario's improvement gate holds vs the stored baseline")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	flag.Parse()

	cfg, err := hotpath.Scenario(*scenario)
	if err != nil {
		fatalf("%v", err)
	}
	fullOps := *ops == 0 || *ops >= cfg.TotalOps
	if *ops > 0 {
		cfg.TotalOps = *ops
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	var cpuf *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("creating %s: %v", *cpuprofile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		cpuf = f
	}
	res, err := hotpath.Run(cfg)
	if cpuf != nil {
		pprof.StopCPUProfile()
		cpuf.Close()
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("creating %s: %v", *memprofile, err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("writing heap profile: %v", err)
		}
		f.Close()
	}

	// rep starts zero so a stored report's identity (or its absence) is
	// visible after parsing — pre-filling the scenario here would mask a
	// mismatched or legacy file.
	var rep report
	firstRun := true
	if *out != "" {
		data, err := os.ReadFile(*out)
		switch {
		case err == nil:
			if err := json.Unmarshal(data, &rep); err != nil {
				fatalf("parsing %s: %v", *out, err)
			}
			firstRun = false
		case os.IsNotExist(err):
			// True first run: this measurement becomes the baseline below.
		default:
			// A transient read failure must not silently replace the
			// recorded baseline with the current run.
			fatalf("reading %s: %v", *out, err)
		}
	}
	if !firstRun && rep.Scenario == "" {
		// Legacy reports predate the scenario stamp; they were all the
		// 8-blade hotpath trajectory.
		rep.Scenario = "hotpath"
	}
	if rep.Scenario != "" && rep.Scenario != cfg.Scenario {
		fatalf("%s records scenario %q; refusing to overwrite it with a %q run",
			*out, rep.Scenario, cfg.Scenario)
	}
	rep.Benchmark = "hotpath-macro-" + cfg.Scenario
	rep.Scenario = cfg.Scenario
	rep.Description = descriptions[cfg.Scenario]

	stamp := func(label string) *entry {
		return &entry{
			Label:     label,
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			Result:    res,
		}
	}
	rep.Current = stamp(*label)
	switch {
	case *rebaseline:
		rep.Baseline = stamp(*label + " (baseline)")
	case rep.Baseline == nil:
		// The baseline block is the trajectory anchor: creating one
		// implicitly is only acceptable on a true first run against a
		// fresh file. A pre-existing report with a missing/blank baseline
		// means the anchor was lost — refuse rather than silently
		// re-anchoring the trajectory to whatever this host measured.
		if !firstRun {
			fatalf("%s exists but has no baseline block; pass -rebaseline to anchor the trajectory to this run", *out)
		}
		rep.Baseline = stamp(*label + " (baseline)")
		if *out != "" {
			fmt.Fprintf(os.Stderr, "bench: first run against %s; recording this measurement as the baseline anchor\n", *out)
		}
	}
	rep.Improvement = &improvement{
		AllocsPerOpPct: pct(rep.Baseline.AllocsPerOp, res.AllocsPerOp),
		NsPerOpPct:     pct(rep.Baseline.NsPerOp, res.NsPerOp),
	}
	if rep.Baseline.EventsPerSec > 0 {
		rep.Improvement.EventsPerSecRel = res.EventsPerSec / rep.Baseline.EventsPerSec
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	fmt.Print(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if *check {
		if *rebaseline {
			fmt.Fprintln(os.Stderr, "bench: -check is meaningless against a just-reset baseline; skipping")
			return
		}
		runCheck(cfg.Scenario, rep, res, fullOps)
	}
}

// runCheck applies the per-scenario gate; allocs/op is a property of the
// code, not the host, so both gates are stable in CI.
//
//   - hotpath: its baseline is the pre-pooling allocator-heavy hot path,
//     so the gate asserts the recorded >= 30% allocs/op improvement plus
//     the absolute 0.10 allocs/op budget.
//   - rack: its baseline is the already-pooled pre-calendar-queue engine
//     (heap + map hot path), so there is no allocation delta to claim —
//     the gate is the absolute allocation budget. The events/sec ratio in
//     the committed report is the tentpole claim, but it is host-relative,
//     so CI gates on the budget only.
//   - pod: brand-new scenario (its baseline IS the pod topology layer),
//     so the gate is the absolute allocation budget plus the structural
//     claims — the pod actually borrowed blades and routed cross-rack
//     traffic, which is what the scenario exists to measure.
//   - podpar: the scenario itself already asserts serial/parallel output
//     identity (hotpath.Run fails the run on any divergence), so the gate
//     adds the structural claims and — on full-ops runs only, where the
//     windows amortize, and only when the host actually grants the
//     workers real cores — the >= 2.5x parallel speedup at 4 workers.
//     Smoke runs (-ops below the scenario default) skip the speedup gate
//     (a short run is dominated by barrier overhead and proves nothing),
//     and a host with fewer CPUs than workers records the ratio without
//     gating it: there, the ratio measures pure executor overhead and
//     physically cannot exceed 1.
//   - servekill: brand-new scenario (its baseline IS the failure
//     machinery), so the gate is the absolute allocation budget plus the
//     structural claims — the storm really happened (>= 2 kills counting
//     the switch failover, every kill recovered, pages lost and moved),
//     the robustness layer engaged (shed, terminal timeouts, retries all
//     nonzero), and every arrival settled exactly once across all six
//     terminal fates.
//   - servepar: same identity-then-speedup structure as podpar, applied
//     to the sharded serving layer, plus the serve-family structural
//     claims — pod-wide request conservation across the rack shards, at
//     least one tenant spanning racks, cross-rack traffic from the
//     memory-poor racks, and QoS throttling actually engaging. The
//     speedup gate arms under the same full-ops + enough-cores rule as
//     podpar (threshold 2.0x: serving windows carry arrival injection
//     on every rack, so the barrier fraction is higher than podpar's).
func runCheck(scenario string, rep report, res hotpath.Result, fullOps bool) {
	if scenario == "hotpath" {
		if got := rep.Improvement.AllocsPerOpPct; got < 30 {
			fatalf("allocs/op improved only %.1f%% vs baseline (want >= 30%%)", got)
		}
	}
	if scenario == "pod" {
		if res.BladeBorrows < 2 {
			fatalf("pod scenario borrowed %d blades (want >= 2); the shape drifted", res.BladeBorrows)
		}
		if res.CrossRackMsgs == 0 {
			fatalf("pod scenario routed no cross-rack messages; the shape drifted")
		}
	}
	if scenario == "serve" {
		if res.ServeArrivals == 0 || res.ServeCompleted == 0 {
			fatalf("serve scenario produced no traffic (arrivals=%d completed=%d)", res.ServeArrivals, res.ServeCompleted)
		}
		if res.ServeThrottled == 0 {
			fatalf("serve scenario recorded no QoS throttles; the aggressor shape drifted")
		}
		if res.ServeArrivals != res.ServeCompleted+res.ServeThrottled+res.ServeDropped {
			fatalf("serve scenario request conservation violated (%d != %d+%d+%d)",
				res.ServeArrivals, res.ServeCompleted, res.ServeThrottled, res.ServeDropped)
		}
		if res.ServeP99Us <= 0 {
			fatalf("serve scenario recorded no steady-tenant p99")
		}
	}
	if scenario == "servekill" {
		if res.ServeArrivals == 0 || res.ServeCompleted == 0 {
			fatalf("servekill scenario produced no traffic (arrivals=%d completed=%d)", res.ServeArrivals, res.ServeCompleted)
		}
		settled := res.ServeCompleted + res.ServeThrottled + res.ServeDropped +
			res.ServeShed + res.ServeTimedOut + res.ServeFailed
		if res.ServeArrivals != settled {
			fatalf("servekill request conservation violated (%d arrivals != %d settled)",
				res.ServeArrivals, settled)
		}
		if res.Kills < 2 || res.Recoveries != res.Kills {
			fatalf("servekill recovery accounting: kills=%d recoveries=%d (want >= 2 and equal)",
				res.Kills, res.Recoveries)
		}
		if res.PagesLost == 0 || res.PagesMoved == 0 {
			fatalf("servekill storm moved no data (lost=%d moved=%d); the shape drifted",
				res.PagesLost, res.PagesMoved)
		}
		if res.ServeShed == 0 || res.ServeTimedOut == 0 || res.ServeRetried == 0 {
			fatalf("servekill robustness layer never engaged (shed=%d timedout=%d retried=%d)",
				res.ServeShed, res.ServeTimedOut, res.ServeRetried)
		}
		if res.ServeP99Us <= 0 {
			fatalf("servekill scenario recorded no steady-tenant p99")
		}
	}
	if scenario == "servepar" {
		if res.ServeArrivals == 0 || res.ServeCompleted == 0 {
			fatalf("servepar scenario produced no traffic (arrivals=%d completed=%d)", res.ServeArrivals, res.ServeCompleted)
		}
		if res.ServeArrivals != res.ServeCompleted+res.ServeThrottled+res.ServeDropped {
			fatalf("servepar scenario request conservation violated across racks (%d != %d+%d+%d)",
				res.ServeArrivals, res.ServeCompleted, res.ServeThrottled, res.ServeDropped)
		}
		if res.ServeThrottled == 0 {
			fatalf("servepar scenario recorded no QoS throttles; the tenant shape drifted")
		}
		if res.SpannedTenants < 1 {
			fatalf("servepar scenario placed no tenant across racks (spanned=%d); the placement shape drifted", res.SpannedTenants)
		}
		if res.CrossRackMsgs == 0 {
			fatalf("servepar scenario routed no cross-rack messages; the shape drifted")
		}
		if res.BladeBorrows == 0 {
			fatalf("servepar scenario borrowed no blades; the memory-poor racks drifted")
		}
		if res.ParallelSpeedup <= 0 {
			fatalf("servepar scenario recorded no parallel speedup ratio")
		}
		if res.WindowsSkipped == 0 {
			fatalf("servepar scenario skipped no windows; the sparse-horizon executor never engaged")
		}
		if fullOps && res.ParallelSpeedup < 2.0 {
			if runtime.NumCPU() >= res.Workers {
				fatalf("parallel speedup %.2fx at %d workers (want >= 2.0x on a full-ops run)",
					res.ParallelSpeedup, res.Workers)
			}
			fmt.Fprintf(os.Stderr, "bench[servepar]: %d CPUs for %d workers — speedup %.2fx recorded, gate skipped (needs >= %d cores)\n",
				runtime.NumCPU(), res.Workers, res.ParallelSpeedup, res.Workers)
		}
	}
	if scenario == "podpar" {
		if res.BladeBorrows < 16 {
			fatalf("podpar scenario borrowed %d blades (want >= 16); the shape drifted", res.BladeBorrows)
		}
		if res.CrossRackMsgs == 0 {
			fatalf("podpar scenario routed no cross-rack messages; the shape drifted")
		}
		if res.ParallelSpeedup <= 0 {
			fatalf("podpar scenario recorded no parallel speedup ratio")
		}
		if res.WindowsSkipped == 0 {
			fatalf("podpar scenario skipped no windows; the sparse-horizon executor never engaged")
		}
		if fullOps && res.ParallelSpeedup < 2.5 {
			if runtime.NumCPU() >= res.Workers {
				fatalf("parallel speedup %.2fx at %d workers (want >= 2.5x on a full-ops run)",
					res.ParallelSpeedup, res.Workers)
			}
			fmt.Fprintf(os.Stderr, "bench[podpar]: %d CPUs for %d workers — speedup %.2fx recorded, gate skipped (needs >= %d cores)\n",
				runtime.NumCPU(), res.Workers, res.ParallelSpeedup, res.Workers)
		}
	}
	// The absolute budget is calibrated on full-ops runs; a short -ops
	// run is dominated by fixed warm-up allocations (per-engine event
	// pools and heap arrays, thread spawns) and would trip it on
	// healthy code.
	if fullOps && res.AllocsPerOp > 0.10 {
		fatalf("allocs/op %.4f exceeds the 0.10 budget", res.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "bench[%s]: allocs/op %.4f vs baseline %.4f (-%.1f%%) — OK\n",
		scenario, res.AllocsPerOp, rep.Baseline.AllocsPerOp, rep.Improvement.AllocsPerOpPct)
}
