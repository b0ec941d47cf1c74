package sim

import "testing"

// fuzzOps runs the operation stream encoded in data on e and returns an
// observation log: every dispatch as (at, id), and after every operation
// the clock, Pending, and the PeekTime result. Each operation is three
// bytes — an opcode and two operands:
//
//	0: ScheduleArg after delay(a, b)
//	1: ScheduleTimer after delay(a, b), keeping the handle
//	2: Cancel handle a
//	3: Rearm handle a after delay(b, a) (canceling it first if pending)
//	4: Step
//	5: RunWindow(now + delay(a, b))
//
// Dispatched events whose id has its low two bits clear schedule a child
// from inside the callback, up to a fixed budget. The final dispatch
// hash and an observation after draining close the log.
func fuzzOps(e queueEngine, data []byte) []int64 {
	var log []int64
	var handles []*Event
	var nextID uint64
	budget := 256
	var fire func(any)
	fire = func(x any) {
		id := x.(uint64)
		log = append(log, int64(e.Now()), int64(id))
		if id&3 == 0 && budget > 0 {
			budget--
			nextID++
			h := eqMix(id)
			e.ScheduleArg(fuzzDelay(byte(h), byte(h>>8)), fire, nextID)
		}
	}
	observe := func() {
		t, ok := e.PeekTime()
		if !ok {
			t = -1
		}
		log = append(log, -1, int64(e.Now()), int64(e.Pending()), int64(t))
	}
	e.EnableDispatchHash()
	for ; len(data) >= 3; data = data[3:] {
		op, a, b := data[0]%6, data[1], data[2]
		nextID++
		switch op {
		case 0:
			e.ScheduleArg(fuzzDelay(a, b), fire, nextID)
		case 1:
			handles = append(handles, e.ScheduleTimer(fuzzDelay(a, b), fire, nextID))
		case 2:
			if len(handles) > 0 {
				e.Cancel(handles[int(a)%len(handles)])
			}
		case 3:
			if len(handles) > 0 {
				k := int(a) % len(handles)
				e.Cancel(handles[k])
				handles[k] = e.Rearm(handles[k], fuzzDelay(b, a), fire, nextID)
			}
		case 4:
			e.Step()
		case 5:
			e.RunWindow(e.Now().Add(fuzzDelay(a, b)))
		}
		observe()
	}
	e.Run()
	observe()
	return append(log, int64(e.DispatchHash()))
}

// fuzzDelay decodes a delay whose top two bits of a pick a band: the
// current instant, under 64 ns, up to ~65 µs, or past ~2.1 ms.
func fuzzDelay(a, b byte) Duration {
	switch a >> 6 {
	case 0:
		return 0
	case 1:
		return Duration(a & 63)
	case 2:
		return Duration(b)<<8 | Duration(a&63)
	default:
		return oldHorizon + Duration(b)<<14 + Duration(a&63)
	}
}

// FuzzEngineOrder runs one operation stream on the production engine
// and on refEngine and requires identical observation logs: the same
// dispatched (at, id) sequence, the same dispatch hash over (at, seq),
// and the same clock, Pending and PeekTime after every operation.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0x41, 0, 1, 0x80, 3, 4, 0, 0})
	f.Add([]byte{1, 0xc0, 1, 1, 0x45, 0, 2, 0, 0, 3, 1, 0x90, 5, 0xc1, 9, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*4096 {
			data = data[:3*4096]
		}
		got := fuzzOps(NewEngine(), data)
		want := fuzzOps(newRefEngine(), data)
		if len(got) != len(want) {
			t.Fatalf("engine log has %d entries, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("logs diverge at entry %d: engine %d, reference %d", i, got[i], want[i])
			}
		}
	})
}
