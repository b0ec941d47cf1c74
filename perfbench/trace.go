package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mind/internal/core"
	"mind/internal/mem"
	"mind/internal/sim"
)

// tracer records host-time spans around every call the benchmark makes
// into a layer of the program, plus aggregated timings of the calls the
// engine makes back into the benchmark's generators. With on == false it
// records nothing and wraps nothing, so untraced runs measure the
// program alone.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	stack  []int // open span indexes, innermost last

	// Generator call timings, one cell per wrapped generator so the
	// engines of different racks never share a cell (each generator is
	// called only from its own rack's events).
	gens     []*callTimer // AccessGen and NextOp calls (layer workloads)
	arrivals []*callTimer // ArrivalProcess.Next calls (layer workloads)
}

// span is one timed call, Chrome trace-event style: start and duration
// in microseconds from the run's origin. Parent is the index of the
// enclosing span, -1 at the root.
type span struct {
	Layer  string  `json:"cat"`
	Name   string  `json:"name"`
	Start  float64 `json:"ts"`
	Dur    float64 `json:"dur"`
	Parent int     `json:"parent"`
}

// callTimer aggregates the host time of many short calls.
type callTimer struct {
	ns    int64
	calls int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now()}
}

// do runs fn inside a span named layer/name.
func (t *tracer) do(layer, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	start := time.Now()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: t.us(start), Parent: parent})
	t.stack = append(t.stack, i)
	fn()
	t.spans[i].Dur = float64(time.Since(start).Nanoseconds()) / 1e3
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.origin).Nanoseconds()) / 1e3
}

// layerSeconds sums the durations of spans in layer whose enclosing
// span is not itself in layer (so nested spans are not counted twice).
func (t *tracer) layerSeconds(layer string) float64 {
	var us float64
	for _, s := range t.spans {
		if s.Layer != layer || (s.Parent >= 0 && t.spans[s.Parent].Layer == layer) {
			continue
		}
		us += s.Dur
	}
	return us / 1e6
}

// accessGen wraps a thread's access generator with a call timer.
func (t *tracer) accessGen(g core.AccessGen) core.AccessGen {
	if !t.on {
		return g
	}
	c := &callTimer{}
	t.gens = append(t.gens, c)
	return func() (mem.VA, bool, bool) {
		t0 := time.Now()
		va, wr, ok := g()
		c.ns += int64(time.Since(t0))
		c.calls++
		return va, wr, ok
	}
}

// nextOp wraps a serving tenant's op stream with a call timer.
func (t *tracer) nextOp(g func() (mem.VA, bool)) func() (mem.VA, bool) {
	if !t.on {
		return g
	}
	c := &callTimer{}
	t.gens = append(t.gens, c)
	return func() (mem.VA, bool) {
		t0 := time.Now()
		va, wr := g()
		c.ns += int64(time.Since(t0))
		c.calls++
		return va, wr
	}
}

// timedArrival wraps an arrival process with a call timer.
type timedArrival struct {
	p core.ArrivalProcess
	c *callTimer
}

func (a timedArrival) Next(now sim.Time) sim.Duration {
	t0 := time.Now()
	d := a.p.Next(now)
	a.c.ns += int64(time.Since(t0))
	a.c.calls++
	return d
}

func (t *tracer) arrival(p core.ArrivalProcess) core.ArrivalProcess {
	if !t.on {
		return p
	}
	c := &callTimer{}
	t.arrivals = append(t.arrivals, c)
	return timedArrival{p: p, c: c}
}

// sum totals a set of call timers.
func sum(cs []*callTimer) (ns, calls int64) {
	for _, c := range cs {
		ns += c.ns
		calls += c.calls
	}
	return ns, calls
}

// writeSpans writes the spans as a Chrome trace-event JSON file (it
// opens in Perfetto), one complete ("X") event per span.
func (t *tracer) writeSpans(path string) error {
	type event struct {
		span
		Ph  string `json:"ph"`
		Pid int    `json:"pid"`
		Tid int    `json:"tid"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{span: s, Ph: "X", Pid: 1, Tid: 1}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceMetrics derives the traced run's per-layer metrics: host time
// of the benchmark's own calls into each layer (spans and call timers)
// and the drive's CPU charged to layers from its profile.
func traceMetrics(res *repResult, tr *tracer, prof *bytes.Buffer, imb *imbalance, drive, cpu float64) error {
	m := res.Metrics
	p, err := decodeProfile(prof.Bytes())
	if err != nil {
		return err
	}
	profiled, share, sched, err := attribute(p)
	if err != nil {
		return err
	}
	var total float64
	for _, l := range layers {
		total += share[l]
		switch l {
		case "runtime.gc":
			m["runtime.gc_cpu_frac"] = share[l]
		case "runtime.other":
			m["runtime.other_cpu_frac"] = share[l]
		default:
			m[l+".cpu_frac"] = share[l]
		}
	}
	if profiled > 0 && math.Abs(total-1) > 1e-9 {
		res.Checks = append(res.Checks, fmt.Sprintf("layer cpu_frac values sum to %v, not 1", total))
	}
	m["runtime.sched_cpu_frac"] = sched
	m["profile.cpu_s"] = profiled
	m["profile.coverage"] = profiled / math.Max(cpu, 1e-9)

	events := m["sim.events"]
	m["sim.ns_per_event"] = share["sim"] * profiled * 1e9 / math.Max(1, events)
	m["core.exec.rack_imbalance"] = imb.ratio()

	for _, l := range []string{"core", "ctrlplane", "workloads"} {
		m[l+".setup_s"] = tr.layerSeconds(l)
	}
	m["stats.merge_s"] = tr.layerSeconds("stats")
	// Per-call times exclude the timer's own cost, measured here.
	timer := timerNs()
	perCall := func(cs []*callTimer) (float64, float64) {
		ns, calls := sum(cs)
		if calls == 0 {
			return 0, 0
		}
		return float64(calls), math.Max(0, float64(ns)/float64(calls)-timer)
	}
	m["workloads.gen_calls"], m["workloads.gen_ns_per_call"] = perCall(tr.gens)
	m["workloads.arrival_calls"], m["workloads.arrival_ns_per_call"] = perCall(tr.arrivals)
	return nil
}

// timerNs is the median host cost of timing one empty call the way the
// call timers do.
func timerNs() float64 {
	const n = 20000
	c := &callTimer{}
	var est []float64
	for round := 0; round < 5; round++ {
		c.ns = 0
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c.ns += int64(time.Since(t0))
		}
		est = append(est, float64(c.ns)/n)
	}
	return median(est)
}
