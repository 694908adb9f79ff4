package sim

// Test oracles: the two structures the engine used to offer as selectable
// references, kept as the simplest thing that is obviously right.
//
//   - refEngine is a binary min-heap under a plain run loop — the scheduler
//     the timing wheel replaced. equiv_test.go replays every script on it
//     and on Engine and compares the firing traces.
//   - runUntilEpochRef/runEpochAllRef are the global-epoch barrier loop the
//     asynchronous shard runtime replaced, run sequentially over a
//     ShardGroup's own engines and channels. shard_fuzz_test.go and
//     shard_test.go compare it with ShardGroup.RunUntil/Run.

import "math/rand"

// eventHeap is a binary min-heap of events by (at, ins, seq). The order is
// spelled out here rather than borrowed from the wheel's eventLess, so a
// slip in either shows up as a divergence.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.ins != b.ins:
		return a.ins < b.ins
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q.less(right, child) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// refEngine is the reference engine: Engine's scheduling contract — clamp
// to now, (at, ins, seq) order, Stop after the current event, clock to the
// deadline unless stopped — over the heap.
type refEngine struct {
	now     Time
	heap    eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

func newRefEngine(seed int64) *refEngine {
	return &refEngine{rng: rand.New(rand.NewSource(seed))}
}

func (e *refEngine) Now() Time        { return e.now }
func (e *refEngine) Rand() *rand.Rand { return e.rng }
func (e *refEngine) Pending() int     { return len(e.heap) }
func (e *refEngine) Stop()            { e.stopped = true }

func (e *refEngine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

func (e *refEngine) Schedule(t Time, h Handler, arg uint64) {
	e.ScheduleKeyed(t, e.now, e.ReserveSeq(), h, arg)
}

func (e *refEngine) ScheduleAfter(d Time, h Handler, arg uint64) {
	e.Schedule(e.now+d, h, arg)
}

func (e *refEngine) ScheduleKeyed(t, ins Time, seq uint64, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	e.heap.push(event{at: t, ins: ins, seq: seq, h: h, arg: arg})
}

func (e *refEngine) Run() int { return e.run(0, false, false) }

func (e *refEngine) RunUntil(deadline Time) int { return e.runTo(deadline, true) }

func (e *refEngine) runTo(deadline Time, inclusive bool) int {
	n := e.run(deadline, true, inclusive)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// run fires events in heap order until none remain, the engine stops, or —
// when bounded — the next one lies beyond the deadline (at it, when not
// inclusive).
func (e *refEngine) run(deadline Time, bounded, inclusive bool) int {
	n := 0
	for len(e.heap) > 0 && !e.stopped {
		if at := e.heap[0].at; bounded && (at > deadline || (!inclusive && at == deadline)) {
			break
		}
		ev := e.heap.pop()
		e.now = ev.at
		ev.h.Handle(ev.arg)
		n++
	}
	return n
}

// drainAllRef empties every channel mailbox into its destination engine —
// the epoch barrier drain. The crossings' keys make any drain order correct.
func drainAllRef(st *groupState) {
	for _, c := range st.channels {
		if c.drainInto(st.engines[c.dst]) > 0 {
			st.drains[c.dst].v++
		}
	}
}

// runUntilEpochRef is ShardGroup.RunUntil as the classic conservative
// window loop: drain every mailbox, find the earliest pending event, run
// every shard to that instant plus the group-wide lookahead, repeat. Each
// window counts as one sync point in SyncStats.Epochs.
func runUntilEpochRef(g *ShardGroup, deadline Time) int {
	st := g.st
	n := 0
	for {
		drainAllRef(st)
		next, ok := g.earliest()
		if !ok || next > deadline {
			break
		}
		st.epochs++
		// Nothing can be emitted before next fires, so no crossing delivers
		// before next+lookahead. A window ending exactly on the deadline
		// still runs exclusive: a crossing can deliver at that instant and
		// must be drained first. Only when none can land at or before the
		// deadline (or there are no channels) is the inclusive run safe.
		end, inclusive := next+st.lookahead, false
		if st.lookahead == 0 || end > deadline {
			end, inclusive = deadline, true
		}
		for _, e := range st.engines {
			n += e.runTo(end, inclusive)
		}
	}
	g.advanceAll(deadline)
	return n
}

// runEpochAllRef is ShardGroup.Run as the same window loop without a
// deadline. Clocks end window-aligned rather than at the last event.
func runEpochAllRef(g *ShardGroup) int {
	st := g.st
	n := 0
	for {
		drainAllRef(st)
		next, ok := g.earliest()
		if !ok {
			break
		}
		st.epochs++
		for _, e := range st.engines {
			if st.lookahead == 0 {
				n += e.Run()
			} else {
				n += e.runTo(next+st.lookahead, false)
			}
		}
	}
	g.advanceAll(g.Now())
	return n
}

// syncImpl names who advances a group in a test: its own asynchronous
// runtime, or the epoch oracle. The hand-written expectations in
// shard_test.go hold for both, which is also what vouches for the oracle.
type syncImpl string

const (
	syncRuntime syncImpl = "runtime"
	syncOracle  syncImpl = "epoch-oracle"
)

var syncImpls = []syncImpl{syncRuntime, syncOracle}

func (m syncImpl) runUntil(g *ShardGroup, deadline Time) int {
	if m == syncOracle {
		return runUntilEpochRef(g, deadline)
	}
	return g.RunUntil(deadline)
}

func (m syncImpl) run(g *ShardGroup) int {
	if m == syncOracle {
		return runEpochAllRef(g)
	}
	return g.Run()
}
