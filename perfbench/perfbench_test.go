package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Each workload passes its output checks at a tiny length, traced and
// untraced, and tracing does not change the simulation.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runRep(w, 7, 0.02, w.workers, false, "")
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(w, 7, 0.02, w.workers, true, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*repResult{plain, traced} {
				if len(r.Checks) > 0 {
					t.Errorf("traced=%v checks failed: %v", r.Traced, r.Checks)
				}
				if r.Attempted == 0 || r.Failed != 0 {
					t.Errorf("traced=%v attempted %d failed %d", r.Traced, r.Attempted, r.Failed)
				}
			}
			if plain.Fingerprint != traced.Fingerprint {
				t.Errorf("tracing changed the simulation: %s vs %s", plain.Fingerprint, traced.Fingerprint)
			}
			for _, d := range e2eMetrics {
				if d.name != "peak_rss_mb" && !(plain.Metrics[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, plain.Metrics[d.name])
				}
			}
			var sum float64
			for _, l := range layers {
				sum += shareOf(traced.Metrics, l)
			}
			// A tiny drive may end before the profiler's first sample.
			if profiled := traced.Metrics["profile.cpu_s"] > 0; profiled && math.Abs(sum-1) > 1e-9 || !profiled && sum != 0 {
				t.Errorf("layer cpu_frac values sum to %v (profiled %v s)", sum, traced.Metrics["profile.cpu_s"])
			}
		})
	}
}

func shareOf(m map[string]float64, layer string) float64 {
	switch layer {
	case "runtime.gc":
		return m["runtime.gc_cpu_frac"]
	case "runtime.other":
		return m["runtime.other_cpu_frac"]
	}
	return m[layer+".cpu_frac"]
}

// A different seed gives a different simulation.
func TestSeedChangesInputs(t *testing.T) {
	w, _ := findWorkload("rack-gc")
	a, err := runRep(w, 1, 0.02, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(w, 2, 0.02, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("seeds 1 and 2 produced the same fingerprint")
	}
}

// The classifier charges each hand-built stack to the right layer.
func TestClassifier(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("runtime.mallocgc", "malloc.go"), f("mind/internal/coherence.(*Directory).Handle", "/src/internal/coherence/directory.go")}, "coherence"},
		{[]frame{f("mind/internal/core.(*podExec).barrier", "/src/internal/core/parexec.go")}, "core.exec"},
		{[]frame{f("mind/internal/core.(*serveTenant).arrive", "/src/internal/core/serve.go")}, "core.serve"},
		{[]frame{f("mind/internal/core.(*Rack).killMemBladeAsync", "/src/internal/core/elasticity.go")}, "core.fail"},
		{[]frame{f("mind/internal/core.(*Pod).injectFault", "/src/internal/core/podfail.go")}, "core.fail"},
		{[]frame{f("mind/internal/core.(*Thread).step", "/src/internal/core/thread.go")}, "core.model"},
		{[]frame{f("mind/internal/sim.(*Engine).Step", "/src/internal/sim/engine.go")}, "sim"},
		{[]frame{f("math.Pow", "pow.go"), f("mind/internal/sim.(*Zipf).Next", "/src/internal/sim/rng.go"), f("mind/internal/workloads.GC.func1.1", "/src/internal/workloads/workloads.go")}, "workloads"},
		{[]frame{f("mind/internal/sim.(*RNG).Float64", "/src/internal/sim/rng.go"), f("main.setupRackGC.func1.GC.1.1", "/src/internal/workloads/workloads.go"), f("main.(*tracer).accessGen.func1", "/src/perfbench/trace.go")}, "workloads"},
		{[]frame{f("mind/internal/core.(*Rack).RunThreads-fm", "<autogenerated>")}, "core.model"},
		{[]frame{f("mind/internal/bitset.(*Set).Add", "/src/internal/bitset/bitset.go")}, "other"},
		{[]frame{f("time.Now", "time.go"), f("main.(*tracer).accessGen.func1", "/src/perfbench/trace.go")}, "bench"},
		{[]frame{f("runtime.scanobject", "mgcmark.go"), f("runtime.gcBgMarkWorker", "mgc.go")}, "runtime.gc"},
		{[]frame{f("runtime.futex", "os_linux.go"), f("runtime.findRunnable", "proc.go"), f("runtime.schedule", "proc.go")}, "runtime.other"},
	}
	p := &profile{sampleTypes: []string{"samples", "cpu"}, locations: map[uint64][]frame{}}
	for i, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("case %d: %v charged to %s, want %s", i, c.stack, got, c.want)
		}
		id := uint64(i + 1)
		p.locations[id] = c.stack
		p.samples = append(p.samples, sample{locs: []uint64{id}, values: []int64{1, 10_000_000}})
	}
	total, share, sched, err := attribute(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(len(cases)) * 0.01; math.Abs(total-want) > 1e-12 {
		t.Errorf("total %v s, want %v", total, want)
	}
	var sum float64
	for _, l := range layers {
		sum += share[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if got, want := share["workloads"], 2/float64(len(cases)); math.Abs(got-want) > 1e-12 {
		t.Errorf("workloads share %v, want %v", got, want)
	}
	if got, want := share["core.fail"], 2/float64(len(cases)); math.Abs(got-want) > 1e-12 {
		t.Errorf("core.fail share %v, want %v", got, want)
	}
	if want := 1 / float64(len(cases)); math.Abs(sched-want) > 1e-12 {
		t.Errorf("scheduler share %v, want %v", sched, want)
	}
}

//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// The decoder reads a profile runtime/pprof writes, and finds the CPU
// where it was spent.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total, share, _, err := attribute(p)
	if err != nil {
		t.Fatal(err)
	}
	if total < 0.1 {
		t.Fatalf("profiled only %v s of a 0.4 s spin", total)
	}
	found := 0.0
	for _, s := range p.samples {
		for _, id := range s.locs {
			if fr := p.locations[id]; len(fr) > 0 && strings.HasSuffix(fr[0].fn, ".spinForProfile") {
				found += float64(s.values[1]) / 1e9
				break
			}
		}
	}
	if found < 0.5*total {
		t.Errorf("spin function holds %v s of %v s profiled", found, total)
	}
	if share["bench"] < 0.5 {
		t.Errorf("bench share %v, want most of the profile", share["bench"])
	}
}

// Quartiles match Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// BENCHMARK.json names exactly the workloads and metrics perfbench
// reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads listed, perfbench has %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: %s, perfbench has %s", i, w.Name, allWorkloads[i].name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, perfbench reports %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: %s %s, perfbench reports %s %s", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
