package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profile is the part of a pprof profile.proto the layer attribution
// needs: the samples' CPU values and their stacks, leaf first.
type profile struct {
	sampleTypes []string // type name per value index
	samples     []sample
	locations   map[uint64][]frame // location id -> frames, innermost first
}

type sample struct {
	locs   []uint64
	values []int64
}

// frame is one (possibly inlined) function of a location.
type frame struct {
	fn, file string
}

// decodeProfile parses a gzip-compressed (or raw) profile.proto, as
// runtime/pprof writes it.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type function struct{ name, file int64 }
	type line struct{ fn uint64 }
	var (
		strs      []string
		typeIdx   []int64
		funcs     = map[uint64]function{}
		locLines  = map[uint64][]line{}
		p         = &profile{locations: map[uint64][]frame{}}
		errFormat = errors.New("profile: malformed protobuf")
	)
	err := walk(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walk(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []line
			err := walk(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var l line
					err := walk(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locLines[id] = lines
			return err
		case 5: // function
			var id uint64
			var fn function
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			if wire != 2 {
				return errFormat
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for id, lines := range locLines {
		fr := make([]frame, len(lines))
		for i, l := range lines {
			fn := funcs[l.fn]
			fr[i] = frame{fn: str(fn.name), file: str(fn.file)}
		}
		p.locations[id] = fr
	}
	return p, nil
}

// walk calls fn for each field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walk(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layer attribution. A sample is charged to its innermost frame in
// module mind (or in the benchmark itself), by package; package core is
// split by source file. The sim package's random-number helpers
// (rng.go) are passed over, so a draw is charged to the layer that
// draws — Zipf sampling inside a generator is workload generation, not
// event-queue work. Samples with no such frame are runtime's, split
// into garbage collection and everything else.

// coreFileLayer maps core's source files to sub-layers; any other core
// file is core.model.
var coreFileLayer = map[string]string{
	"parexec.go":    "core.exec",
	"serve.go":      "core.serve",
	"elasticity.go": "core.fail",
	"podfail.go":    "core.fail",
}

// layers lists every layer a CPU sample can be charged to.
var layers = []string{
	"sim", "core.exec", "core.serve", "core.fail", "core.model",
	"computeblade", "coherence", "switchasic", "fabric", "memblade",
	"ctrlplane", "workloads", "stats", "other", "bench",
	"runtime.gc", "runtime.other",
}

// frameLayer classifies one frame; ok is false for frames outside
// module mind and the benchmark. The function name decides membership
// (the benchmark's own package is main, or mind/perfbench in its test
// binary); the source file's directory decides the package, because a
// closure inlined into another package's function is named after that
// function (workloads.GC's generator built inside the benchmark is
// main.setupRackGC.func1.GC.1.1, in workloads/workloads.go).
func frameLayer(f frame) (layer string, ok bool) {
	name := f.fn
	if !strings.HasPrefix(name, "mind/") && !strings.HasPrefix(name, "main.") {
		return "", false
	}
	pkg := path.Base(path.Dir(f.file))
	if pkg == "." || pkg == "/" {
		// No source file (a generated wrapper): use the name, whose
		// package path ends at the first '.' after the last '/'.
		pkg = name
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		if j := strings.Index(pkg, "."); j >= 0 {
			pkg = pkg[:j]
		}
	}
	switch pkg {
	case "perfbench", "main":
		return "bench", true
	case "sim":
		if path.Base(f.file) == "rng.go" {
			return "", false
		}
		return pkg, true
	case "core":
		if l, ok := coreFileLayer[path.Base(f.file)]; ok {
			return l, true
		}
		return "core.model", true
	case "computeblade", "coherence", "switchasic", "fabric", "memblade", "ctrlplane", "workloads", "stats":
		return pkg, true
	}
	return "other", true
}

// gcRoots are runtime entry points whose stacks are garbage-collection
// work when no mind frame is above them.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.forEachP", "runtime.runGCProg"}

// sampleLayer classifies one stack (innermost first).
func sampleLayer(stack []frame) string {
	for _, f := range stack {
		if l, ok := frameLayer(f); ok {
			return l
		}
	}
	for _, f := range stack {
		for _, r := range gcRoots {
			if f.fn == r {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// schedFuncs are runtime functions that are the scheduler at work
// (finding, parking and waking goroutines and threads).
var schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.stopm", "runtime.notesleep", "runtime.futexsleep", "runtime.futexwakeup", "runtime.wakep", "runtime.startm", "runtime.goready", "runtime.ready", "runtime.mcall"}

// attribute charges a profile's CPU time to layers. It returns the
// total profiled CPU in seconds, each layer's share, and the share of
// runtime.other spent in the scheduler.
func attribute(p *profile) (total float64, share map[string]float64, sched float64, err error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return 0, nil, 0, errors.New("profile: no cpu sample type")
	}
	ns := map[string]int64{}
	var all, schedNs int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []frame
		for _, id := range s.locs {
			stack = append(stack, p.locations[id]...)
		}
		v := s.values[vi]
		l := sampleLayer(stack)
		ns[l] += v
		all += v
		if l == "runtime.other" && inSched(stack) {
			schedNs += v
		}
	}
	share = map[string]float64{}
	for _, l := range layers {
		share[l] = 0
		if all > 0 {
			share[l] = float64(ns[l]) / float64(all)
		}
	}
	if all > 0 {
		sched = float64(schedNs) / float64(all)
	}
	return float64(all) / 1e9, share, sched, nil
}

func inSched(stack []frame) bool {
	for _, f := range stack {
		for _, s := range schedFuncs {
			if f.fn == s {
				return true
			}
		}
	}
	return false
}
