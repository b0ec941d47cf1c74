package sim

import "container/heap"

// queueEngine is the surface the equivalence tests and FuzzEngineOrder
// drive on both the production Engine and refEngine.
type queueEngine interface {
	Now() Time
	Schedule(delay Duration, fn func()) *Event
	ScheduleArg(delay Duration, fn func(any), arg any)
	ScheduleTimer(delay Duration, fn func(any), arg any) *Event
	Rearm(ev *Event, delay Duration, fn func(any), arg any) *Event
	Cancel(ev *Event)
	Step() bool
	Run()
	RunWindow(end Time)
	PeekTime() (Time, bool)
	Pending() int
	EnableDispatchHash()
	DispatchHash() uint64
	executed() uint64
}

func (e *Engine) executed() uint64 { return e.Executed }

// refEngine is the oracle: every event, including those at the current
// instant, goes through one container/heap binary heap ordered by
// (time, seq). It has no free list, no fast lane and no inline keys, so
// its dispatch order is ascending (time, seq) by construction. Sequence
// numbers advance exactly as in Engine (one per schedule or re-arm), so
// the two engines' dispatch-trace hashes agree whenever their dispatch
// orders do.
type refEngine struct {
	now    Time
	seq    uint64
	q      refHeap
	count  uint64
	hashOn bool
	hash   uint64
}

type refHeap []*Event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*Event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

func newRefEngine() *refEngine { return &refEngine{} }

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) push(ev *Event, at Time, fn func(any), arg any) *Event {
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev.at, ev.seq, ev.fn, ev.arg, ev.state = at, r.seq, fn, arg, statePending
	heap.Push(&r.q, ev)
	return ev
}

func (r *refEngine) Schedule(delay Duration, fn func()) *Event {
	return r.push(new(Event), r.now.Add(max(delay, 0)), CallFunc, fn)
}

func (r *refEngine) ScheduleArg(delay Duration, fn func(any), arg any) {
	r.push(new(Event), r.now.Add(max(delay, 0)), fn, arg)
}

func (r *refEngine) ScheduleTimer(delay Duration, fn func(any), arg any) *Event {
	return r.push(new(Event), r.now.Add(max(delay, 0)), fn, arg)
}

func (r *refEngine) Rearm(ev *Event, delay Duration, fn func(any), arg any) *Event {
	if ev == nil {
		ev = new(Event)
	} else if ev.state == statePending {
		panic("ref: Rearm of a pending event")
	}
	return r.push(ev, r.now.Add(max(delay, 0)), fn, arg)
}

func (r *refEngine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	heap.Remove(&r.q, ev.idx)
	ev.state = stateCanceled
	ev.fn, ev.arg = nil, nil
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := heap.Pop(&r.q).(*Event)
	r.now = ev.at
	if r.hashOn {
		r.hash = (r.hash ^ uint64(ev.at)) * 1099511628211
		r.hash = (r.hash ^ ev.seq) * 1099511628211
	}
	fn, arg := ev.fn, ev.arg
	ev.fn, ev.arg, ev.state = nil, nil, stateFired
	r.count++
	fn(arg)
	return true
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

func (r *refEngine) RunWindow(end Time) {
	for {
		if t, ok := r.PeekTime(); !ok || t >= end {
			r.now = max(r.now, end)
			return
		}
		r.Step()
	}
}

func (r *refEngine) PeekTime() (Time, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) EnableDispatchHash() {
	r.hashOn = true
	if r.hash == 0 {
		r.hash = 14695981039346656037
	}
}

func (r *refEngine) DispatchHash() uint64 { return r.hash }

func (r *refEngine) executed() uint64 { return r.count }
