package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"mind/internal/core"
	"mind/internal/sim"
	"mind/internal/stats"
)

// repResult is one simulation's measurement: a child process prints it
// as one JSON line and the parent aggregates several.
type repResult struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	Workers     int                `json:"workers"`
	Fingerprint string             `json:"fingerprint"`
	Attempted   uint64             `json:"attempted"`
	Failed      uint64             `json:"failed"`
	Checks      []string           `json:"checks,omitempty"` // failed output checks
	Metrics     map[string]float64 `json:"metrics"`
	// Window counts of the pod executor (zero for a 1-rack pod). Kept
	// apart from the fingerprint: the traced run's sampler clamps
	// window skipping, so they differ between traced and untraced runs.
	Windows [3]uint64 `json:"windows"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// sampleEvery is the traced run's barrier sampling period.
const sampleEvery = 20 * sim.Microsecond

// runRep sets up and drives one simulation of w and measures it. With
// traced set it also records spans, times the generator calls, samples
// rack balance at barriers and profiles the drive.
func runRep(w workload, seed uint64, scale float64, workers int, traced bool, spansPath string) (*repResult, error) {
	tr := newTracer(traced)
	res := &repResult{Workload: w.name, Seed: seed, Traced: traced, Workers: workers, Metrics: map[string]float64{}}
	m := res.Metrics

	// Set-up: everything from the start of the run to the drive call.
	t0 := time.Now()
	var inst *instance
	var err error
	tr.do("bench", "setup", func() { inst, err = w.setup(tr, seed, scale, workers) })
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	runtime.GC() // the drive starts from a settled heap
	m["setup_s"] = time.Since(t0).Seconds()
	pod := inst.pod

	var imb *imbalance
	if traced && pod.Racks() > 1 {
		imb = &imbalance{prev: make([]uint64, pod.Racks())}
		pod.SampleEvery(sampleEvery, func(sim.Time) {
			tr.do("core.exec", "SampleEvery", func() { imb.sample(pod) })
		})
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sched0 := readSchedHist()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := processCPU() // inside the profile, so the two cover one interval
	events0 := pod.ExecutedEvents()

	// The drive: the only timed region of the end-to-end metrics.
	d0 := time.Now()
	var end sim.Time
	tr.do("bench", "drive", func() { end, err = inst.drive() })
	drive := time.Since(d0).Seconds()
	cpu := processCPU() - cpu0
	if traced {
		pprof.StopCPUProfile()
	}
	sched1 := readSchedHist()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("%s drive: %w", w.name, err)
	}
	events := pod.ExecutedEvents() - events0

	var col *stats.Collector
	tr.do("stats", "Pod.Collector", func() { col = pod.Collector() })
	accesses := col.Counter(stats.CtrAccesses)
	remote := col.Counter(stats.CtrRemoteAccesses)
	var remoteNs sim.Duration
	for _, c := range []string{stats.LatPgFault, stats.LatNetwork, stats.LatInvQueue, stats.LatInvTLB} {
		remoteNs += col.LatencySum(c)
	}
	wx, ws, fe := pod.WindowStats()
	res.Windows = [3]uint64{wx, ws, fe}

	m["drive_s"] = drive
	m["accesses_per_s"] = float64(accesses) / drive
	m["allocs_per_access"] = float64(ms1.Mallocs-ms0.Mallocs) / math.Max(1, float64(accesses))
	m["virtual_mops"] = float64(accesses) / end.Sub(0).Seconds() / 1e6
	m["remote_lat_us"] = float64(remoteNs) / 1e3 / math.Max(1, float64(remote))
	m["accesses"] = float64(accesses)
	m["virtual_end_s"] = end.Sub(0).Seconds()

	// Per-layer work counts.
	m["sim.events"] = float64(events)
	m["sim.events_per_access"] = float64(events) / math.Max(1, float64(accesses))
	hits := col.Counter(stats.CtrLocalHits)
	m["computeblade.hit_ratio"] = float64(hits) / math.Max(1, float64(accesses))
	m["computeblade.evictions"] = float64(col.Counter(stats.CtrEvictions))
	m["computeblade.writebacks"] = float64(col.Counter(stats.CtrWritebacks))
	flushed := col.Counter(stats.CtrFlushedPages)
	m["coherence.invalidations"] = float64(col.Counter(stats.CtrInvalidations))
	m["coherence.flushed_pages"] = float64(flushed)
	m["coherence.false_inval_ratio"] = float64(col.Counter(stats.CtrFalseInvals)) / math.Max(1, float64(flushed))
	m["coherence.region_splits"] = float64(col.Counter(stats.CtrSplits))
	m["coherence.region_merges"] = float64(col.Counter(stats.CtrMerges))
	m["switchasic.multicasts"] = float64(col.Counter(stats.CtrMulticasts))
	m["switchasic.pruned_copies"] = float64(col.Counter(stats.CtrPrunedCopies))
	m["switchasic.recirculations"] = float64(col.Counter(stats.CtrRecirculations))
	m["fabric.cross_rack_msgs"] = float64(col.Counter(stats.CtrCrossRackMsgs))
	m["fabric.retransmits"] = float64(col.Counter(stats.CtrRetransmits))
	m["ctrlplane.blade_borrows"] = float64(col.Counter(stats.CtrBladeBorrows))
	m["ctrlplane.blade_returns"] = float64(col.Counter(stats.CtrBladeReturns))
	m["ctrlplane.promoted_pages"] = float64(col.Counter(stats.CtrPromotedPages))
	m["core.fail.kills"] = float64(col.Counter(stats.CtrBladeKills))
	m["core.fail.recoveries"] = float64(col.Counter(stats.CtrBladeRecoveries))
	m["core.fail.migration_stalls"] = float64(col.Counter(stats.CtrMigrationStalls))
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.sched_lat_p99_us"] = schedP99(sched0, sched1) * 1e6

	// Output checks and the attempted/failed accounting.
	if inst.closedOps > 0 {
		res.Attempted = inst.closedOps
		if accesses != inst.closedOps {
			res.Failed = diff(inst.closedOps, accesses)
			res.Checks = append(res.Checks, fmt.Sprintf("closed loop completed %d accesses, configured %d", accesses, inst.closedOps))
		}
	}
	if inst.crossRack {
		if col.Counter(stats.CtrBladeBorrows) == 0 {
			res.Checks = append(res.Checks, "no blade was borrowed")
		}
		if col.Counter(stats.CtrCrossRackMsgs) == 0 {
			res.Checks = append(res.Checks, "no cross-rack message was routed")
		}
	}
	fp := fnv.New64a()
	fmt.Fprintf(fp, "%s events=%d accesses=%d end=%d", w.name, events, accesses, end)
	if st := inst.serve; st != nil {
		serveMetrics(res, col, st, fp)
	}
	snap := col.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(fp, " %s=%d", k, snap[k])
	}
	for _, c := range []string{stats.LatPgFault, stats.LatNetwork, stats.LatInvQueue, stats.LatInvTLB} {
		fmt.Fprintf(fp, " %s=%d", c, col.LatencySum(c))
	}
	res.Fingerprint = fmt.Sprintf("%016x", fp.Sum64())

	if traced {
		if err := traceMetrics(res, tr, &prof, imb, drive, cpu); err != nil {
			return nil, err
		}
		if spansPath != "" {
			if err := tr.writeSpans(spansPath); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return res, nil
}

// serveMetrics checks the open loop's request accounting and storm,
// and records its counters, percentiles and failure fraction.
func serveMetrics(res *repResult, col *stats.Collector, st *serveState, fp io.Writer) {
	m := res.Metrics
	arr := col.Counter(stats.CtrServeArrivals)
	fates := map[string]uint64{
		"completed": col.Counter(stats.CtrServeCompleted),
		"throttled": col.Counter(stats.CtrServeThrottled),
		"dropped":   col.Counter(stats.CtrServeDropped),
		"shed":      col.Counter(stats.CtrServeShed),
		"timedout":  col.Counter(stats.CtrServeTimedOut),
		"failed":    col.Counter(stats.CtrServeFailed),
	}
	var accounted uint64
	for k, v := range fates {
		m["core.serve."+k] = float64(v)
		accounted += v
	}
	m["core.serve.arrivals"] = float64(arr)
	m["core.serve.retried"] = float64(col.Counter(stats.CtrServeRetried))
	res.Attempted = arr
	if accounted != arr {
		res.Failed = diff(arr, accounted)
		res.Checks = append(res.Checks, fmt.Sprintf("arrivals %d != sum of six fates %d", arr, accounted))
	}
	m["core.serve.failed_frac"] = float64(arr-fates["completed"]) / math.Max(1, float64(arr))

	h := stats.NewStreamHist()
	for _, name := range st.tenants {
		h.MergeFrom(col.StreamHist("serve_lat[" + name + "]"))
	}
	m["core.serve.p50_us"] = float64(h.Percentile(50)) / 1e3
	m["core.serve.p99_us"] = float64(h.Percentile(99)) / 1e3
	m["core.serve.samples"] = float64(h.Count())
	fmt.Fprintf(fp, " p50=%d p99=%d n=%d", h.Percentile(50), h.Percentile(99), h.Count())

	if st.spanned == 0 {
		res.Checks = append(res.Checks, "no tenant spans racks")
	}
	sm := &st.storm
	for _, e := range []struct {
		what  string
		fired bool
		err   error
	}{{"blade kill", sm.killFired, sm.killErr}, {"switch failover", sm.switchFired, sm.switchErr}, {"drain", sm.drainFired, sm.drainErr}} {
		if !e.fired {
			res.Checks = append(res.Checks, e.what+" callback never fired")
		} else if e.err != nil {
			res.Checks = append(res.Checks, fmt.Sprintf("%s: %v", e.what, e.err))
		}
	}
	if k, r := col.Counter(stats.CtrBladeKills), col.Counter(stats.CtrBladeRecoveries); k != r || k == 0 {
		res.Checks = append(res.Checks, fmt.Sprintf("kills %d, recoveries %d", k, r))
	}
	m["core.fail.kill_blackout_us"] = float64(sm.kill.Blackout()) / 1e3
	m["core.fail.failover_blackout_us"] = float64(sm.failover.Blackout()) / 1e3
	m["core.fail.drain_blackout_us"] = float64(sm.drain.Blackout()) / 1e3
	m["core.fail.pages_lost"] = float64(sm.kill.PagesLost)
	m["core.fail.pages_moved"] = float64(sm.drain.PagesMoved)
	fmt.Fprintf(fp, " kill=%+v failover=%+v drain=%+v", sm.kill, sm.failover, sm.drain)
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// imbalance accumulates per-rack event counts between barrier samples:
// the sum over intervals of the busiest rack's events, and of the mean
// rack's. Their ratio is how much longer the critical rack ran than an
// evenly loaded one.
type imbalance struct {
	prev          []uint64
	maxSum, total float64
	samples       int
}

func (b *imbalance) sample(pod *core.Pod) {
	var max, tot uint64
	for i := range b.prev {
		n := pod.Rack(i).Engine().Executed
		d := n - b.prev[i]
		b.prev[i] = n
		tot += d
		if d > max {
			max = d
		}
	}
	b.maxSum += float64(max)
	b.total += float64(tot)
	b.samples++
}

func (b *imbalance) ratio() float64 {
	if b == nil || b.total == 0 {
		return 0
	}
	return b.maxSum / (b.total / float64(len(b.prev)))
}

// processCPU returns the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

const schedMetric = "/sched/latencies:seconds"

// readSchedHist reads the runtime's goroutine scheduling-latency
// histogram.
func readSchedHist() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: schedMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// schedP99 is the 99th percentile of the scheduling latencies recorded
// between two histogram reads (upper bucket edge), in seconds.
func schedP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range d {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= rank {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge
		}
	}
	return 0
}
