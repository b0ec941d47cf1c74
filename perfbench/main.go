// Command perfbench is the MIND reproduction's benchmark of record. It
// drives three workloads through the public core API and reports
// end-to-end metrics (host time and virtual time) from untraced runs,
// and per-layer metrics from a separate traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload rack-gc --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 40 --trace 1
//
// Each simulation runs in a fresh child process (one process, one
// simulation), so peak resident memory and set-up time are per
// simulation. A run simulates eight inputs derived from --seed, in
// turn, until --seconds is spent, and reports medians of host metrics
// and means of virtual ones. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by untraced runs (--trace 0) on every
// workload. BENCHMARK.json lists the same names.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"accesses_per_s", "1/s"},
	{"allocs_per_access", "count"},
	{"peak_rss_mb", "MB"},
	{"virtual_mops", "Mops/s"},
	{"remote_lat_us", "us"},
}

// layerMetrics are reported by traced runs (--trace 1) on every
// workload; a metric of a layer the workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_access", "ratio"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_frac", "fraction"},
	{"core.exec.windows_executed", "count"},
	{"core.exec.windows_skipped", "count"},
	{"core.exec.flushes_elided", "count"},
	{"core.exec.events_per_window", "ratio"},
	{"core.exec.rack_imbalance", "ratio"},
	{"core.exec.parallel_speedup", "ratio"},
	{"core.exec.cpu_frac", "fraction"},
	{"computeblade.hit_ratio", "fraction"},
	{"computeblade.evictions", "count"},
	{"computeblade.writebacks", "count"},
	{"computeblade.cpu_frac", "fraction"},
	{"coherence.invalidations", "count"},
	{"coherence.flushed_pages", "count"},
	{"coherence.false_inval_ratio", "fraction"},
	{"coherence.region_splits", "count"},
	{"coherence.region_merges", "count"},
	{"coherence.cpu_frac", "fraction"},
	{"switchasic.multicasts", "count"},
	{"switchasic.pruned_copies", "count"},
	{"switchasic.recirculations", "count"},
	{"switchasic.cpu_frac", "fraction"},
	{"fabric.cross_rack_msgs", "count"},
	{"fabric.retransmits", "count"},
	{"fabric.cpu_frac", "fraction"},
	{"memblade.cpu_frac", "fraction"},
	{"ctrlplane.blade_borrows", "count"},
	{"ctrlplane.blade_returns", "count"},
	{"ctrlplane.promoted_pages", "count"},
	{"ctrlplane.setup_s", "s"},
	{"ctrlplane.cpu_frac", "fraction"},
	{"core.serve.arrivals", "count"},
	{"core.serve.completed", "count"},
	{"core.serve.throttled", "count"},
	{"core.serve.dropped", "count"},
	{"core.serve.shed", "count"},
	{"core.serve.timedout", "count"},
	{"core.serve.retried", "count"},
	{"core.serve.failed", "count"},
	{"core.serve.failed_frac", "fraction"},
	{"core.serve.p50_us", "us"},
	{"core.serve.p99_us", "us"},
	{"core.serve.samples", "count"},
	{"core.serve.cpu_frac", "fraction"},
	{"core.fail.kills", "count"},
	{"core.fail.recoveries", "count"},
	{"core.fail.kill_blackout_us", "us"},
	{"core.fail.failover_blackout_us", "us"},
	{"core.fail.drain_blackout_us", "us"},
	{"core.fail.pages_lost", "count"},
	{"core.fail.pages_moved", "count"},
	{"core.fail.migration_stalls", "count"},
	{"core.fail.cpu_frac", "fraction"},
	{"core.model.cpu_frac", "fraction"},
	{"core.setup_s", "s"},
	{"workloads.setup_s", "s"},
	{"workloads.gen_calls", "count"},
	{"workloads.gen_ns_per_call", "ns"},
	{"workloads.arrival_calls", "count"},
	{"workloads.arrival_ns_per_call", "ns"},
	{"workloads.cpu_frac", "fraction"},
	{"stats.merge_s", "s"},
	{"stats.cpu_frac", "fraction"},
	{"other.cpu_frac", "fraction"},
	{"bench.cpu_frac", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.gc_cycles", "count"},
	{"runtime.other_cpu_frac", "fraction"},
	{"runtime.sched_cpu_frac", "fraction"},
	{"runtime.sched_lat_p99_us", "us"},
	{"profile.coverage", "ratio"},
	{"trace_overhead_frac", "fraction"},
}

// childTimeout bounds one simulation; a whole run must end within 180 s.
const childTimeout = 150 * time.Second

func main() {
	var (
		wname   = flag.String("workload", "", "workload: rack-gc, pod-mix, serve-pod or all")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 40, "measurement budget of one run, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
		child   = flag.Bool("child", false, "run one simulation and print its measurement as JSON (internal)")
		workers = flag.Int("workers", 0, "pod executor workers (0: the workload's own)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *child {
		w, err := findWorkload(*wname)
		if err != nil {
			fatal(err)
		}
		if *workers == 0 {
			*workers = w.workers
		}
		spans := ""
		if *trace == 1 {
			spans = spansPath(w, *seed)
		}
		res, err := runRep(w, *seed, 1, *workers, *trace == 1, spans)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	names := []string{*wname}
	if *wname == "all" {
		names = nil
		for _, w := range allWorkloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			fatal(err)
		}
		out, err := measure(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// inputsPerRun is how many distinct inputs an untraced run simulates,
// each derived from the run's seed. Host metrics are medians over all
// the run's simulations and virtual metrics means over its inputs, so a
// run's figures do not hinge on one input's luck.
const inputsPerRun = 8

// inputSeed derives the seed of a run's i-th input. Different run seeds
// give disjoint input seeds.
func inputSeed(seed uint64, i int) uint64 { return seed*inputsPerRun + uint64(i) }

// virtualMetrics are the end-to-end metrics that are deterministic for
// an input: a run reports their mean over its inputs.
var virtualMetrics = map[string]bool{"virtual_mops": true, "remote_lat_us": true}

// measure runs one workload. Untraced, it simulates the run's inputs in
// turn until the budget is spent, each at least once and the first at
// least twice (end-to-end metrics). Traced, it simulates input 0 once
// serially for a parallel workload, then alternately untraced and
// traced until the budget is spent, at least twice each (per-layer
// metrics, from the last traced simulation). It prints a readable
// report and returns the result line.
func measure(w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var reps, traces []*repResult
	var serial *repResult
	if traced && w.workers > 1 {
		var err error
		if serial, err = spawn(w, inputSeed(seed, 0), 1, false, start); err != nil {
			return nil, err
		}
	}
	var last time.Duration
	for n := 0; n < 64; n++ {
		enough, need := n > inputsPerRun, last
		in, tracedSim := n%inputsPerRun, false
		if traced {
			// Whole untraced+traced pairs.
			enough, need = n >= 4 && n%2 == 0, 2*last
			in, tracedSim = 0, n%2 == 1
		}
		if enough && time.Now().Add(need).After(deadline) {
			break
		}
		t := time.Now()
		r, err := spawn(w, inputSeed(seed, in), 0, tracedSim, start)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		if tracedSim {
			traces = append(traces, r)
		} else {
			reps = append(reps, r)
		}
	}

	// Every repeat of an input must reproduce its first simulation.
	out := &result{Metrics: map[string]metricValue{}}
	var failures []string
	repeatsOK := true
	first := map[uint64]*repResult{}
	var inputs []*repResult // first simulation of each input, in order
	for _, r := range reps {
		if f, ok := first[r.Seed]; !ok {
			first[r.Seed] = r
			inputs = append(inputs, r)
		} else {
			if r.Fingerprint != f.Fingerprint {
				repeatsOK = false
				failures = append(failures, fmt.Sprintf("input seed %d: fingerprint %s differs from %s", r.Seed, r.Fingerprint, f.Fingerprint))
			}
			if r.Windows != f.Windows {
				failures = append(failures, fmt.Sprintf("input seed %d: window counts %v differ from %v", r.Seed, r.Windows, f.Windows))
			}
		}
		failures = append(failures, r.Checks...)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	fph := fnv.New64a()
	for _, r := range inputs {
		fmt.Fprintf(fph, "%d:%s ", r.Seed, r.Fingerprint)
	}
	fp := fmt.Sprintf("%016x", fph.Sum64())
	overReps := func(key string) []float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = r.Metrics[key]
			if key == "peak_rss_mb" {
				v[i] = r.PeakRSSMB
			}
		}
		return v
	}
	meanOverInputs := func(key string) float64 {
		var sum float64
		for _, r := range inputs {
			sum += r.Metrics[key]
		}
		return sum / float64(len(inputs))
	}
	fmt.Printf("workload %s  seed %d  inputs %d  simulations %d\n", w.name, seed, len(inputs), len(reps))

	var defs []metricDef
	values := map[string]float64{}
	if !traced {
		defs = e2eMetrics
		for _, d := range e2eMetrics {
			if virtualMetrics[d.name] {
				values[d.name] = meanOverInputs(d.name)
				fmt.Printf("  %-20s %14.6g %-8s (mean over %d inputs)\n", d.name, values[d.name], d.unit, len(inputs))
				continue
			}
			v := overReps(d.name)
			values[d.name] = median(v)
			q1, q3 := quartiles(v)
			fmt.Printf("  %-20s %14.6g %-8s (median of %d; quartiles %.6g .. %.6g)\n", d.name, values[d.name], d.unit, len(v), q1, q3)
		}
		// The open loop's own end-to-end figures, and the failure
		// fraction: deterministic for an input, so means over inputs.
		var samples float64
		for _, r := range inputs {
			samples += r.Metrics["core.serve.samples"]
		}
		fmt.Printf("  %-20s %14.6g %-8s (mean over %d inputs)\n", "failed_frac", meanOverInputs("core.serve.failed_frac"), "fraction", len(inputs))
		if samples > 0 {
			fmt.Printf("  %-20s %14.6g %-8s (mean over %d inputs; %.0f completed requests)\n", "serve_p50_us", meanOverInputs("core.serve.p50_us"), "us", len(inputs), samples)
			fmt.Printf("  %-20s %14.6g %-8s (mean over %d inputs; %.0f completed requests)\n", "serve_p99_us", meanOverInputs("core.serve.p99_us"), "us", len(inputs), samples)
		}
	} else {
		defs = layerMetrics
		driveS := median(overReps("drive_s"))
		if serial != nil {
			if serial.Fingerprint != reps[0].Fingerprint {
				repeatsOK = false
				failures = append(failures, fmt.Sprintf("serial fingerprint %s differs from %s", serial.Fingerprint, reps[0].Fingerprint))
			}
			values["core.exec.parallel_speedup"] = serial.Metrics["drive_s"] / driveS
		}
		tdrive := make([]float64, len(traces))
		for i, tr := range traces {
			if tr.Fingerprint != reps[0].Fingerprint {
				repeatsOK = false
				failures = append(failures, fmt.Sprintf("traced fingerprint %s differs from %s", tr.Fingerprint, reps[0].Fingerprint))
			}
			failures = append(failures, tr.Checks...)
			tdrive[i] = tr.Metrics["drive_s"]
		}
		// The last traced simulation's spans are the ones on disk.
		tr := traces[len(traces)-1]
		for k, v := range tr.Metrics {
			values[k] = v
		}
		win := reps[0].Windows
		values["core.exec.windows_executed"] = float64(win[0])
		values["core.exec.windows_skipped"] = float64(win[1])
		values["core.exec.flushes_elided"] = float64(win[2])
		if win[0] > 0 {
			values["core.exec.events_per_window"] = tr.Metrics["sim.events"] / float64(win[0])
		}
		values["trace_overhead_frac"] = median(tdrive)/driveS - 1
		if c := values["profile.coverage"]; math.Abs(c-1) > 0.05 {
			failures = append(failures, fmt.Sprintf("profiled CPU is %.3f of process CPU (want within 5%%)", c))
		}
		for _, d := range layerMetrics {
			fmt.Printf("  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
		}
		fmt.Printf("  traced simulations %d; spans written to %s\n", len(traces), spansPath(w, tr.Seed))
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	fmt.Printf("  fingerprint %s over %d inputs (", fp, len(inputs))
	for i, r := range inputs {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%d:%s", r.Seed, r.Fingerprint)
	}
	fmt.Printf("); repeats identical: %v\n", repeatsOK)
	out.Correct = len(failures) == 0
	if out.Correct {
		fmt.Println("  checks: all passed")
	}
	for _, f := range failures {
		fmt.Println("  CHECK FAILED:", f)
	}
	return out, nil
}

// spansPath is where a traced simulation writes its spans.
func spansPath(w workload, seed uint64) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, seed))
}

// spawn runs one simulation in a child process and returns its
// measurement, with the child's peak resident memory.
func spawn(w workload, seed uint64, workers int, traced bool, runStart time.Time) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"--child", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
		"--trace", tr, "--workers", strconv.Itoa(workers)}
	ctx, cancel := context.WithDeadline(context.Background(), runStart.Add(childTimeout))
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%s simulation exceeded %v", w.name, childTimeout)
		}
		return nil, fmt.Errorf("%s simulation: %w", w.name, err)
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s simulation output: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &r, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles (exclusive method, as
// Python's statistics.quantiles), or the extremes for fewer than two
// values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(p float64) float64 {
		x := p * float64(n+1)
		j := int(x)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (x-float64(j))*(s[j]-s[j-1])
	}
	return q(0.25), q(0.75)
}
