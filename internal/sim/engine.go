// Package sim is a deterministic discrete-event simulation engine with
// virtual nanosecond time. It replaces the paper's Mininet testbed: the
// protocol and queueing dynamics the evaluation measures (Figures 1, 2, 4)
// run against a virtual clock, so Go's garbage collector and scheduler can
// never distort latencies — the main fidelity risk of wall-clock emulation.
//
// One Engine simulates one topology shard. A ShardGroup runs N engines as an
// asynchronous conservative parallel discrete-event simulation (PDES):
// every shard-crossing link is a lock-free single-producer/single-consumer
// Channel, each shard independently advances to its per-channel lookahead
// horizon (the minimum over incoming channels of the source's published
// clock plus the channel delay) on a persistent worker goroutine, and
// crossings merge in a deterministic order that makes the drain instant
// unobservable — so a sharded run produces the same results as a
// single-engine run of the same seed, on as many cores as there are
// shards.
//
// Pending events live in a hierarchical timing wheel (wheel.go) with
// amortized O(1) push/pop, firing in (firing time, insertion time, sequence)
// order — the determinism contract every figure in this repository pins.
//
// There is one scheduler and one synchronization algorithm, and neither is
// selectable. The structures they replaced — a binary min-heap and a
// global-epoch barrier loop — live on as test oracles in oracle_test.go,
// which equiv_test.go and shard_fuzz_test.go replay random scripts against.
package sim

import "math/rand"

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Convenient units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// Seconds converts virtual time to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Handler is the allocation-free event target: a pre-bound object whose
// Handle method is invoked with the uint64 payload it was scheduled with.
// Scheduling a pointer-typed Handler stores nothing but the two interface
// words and the payload in the event record, so the per-packet events of the
// simulation hot path (transmit-done, delivery, next-send) cost zero heap
// allocations — unlike a closure, which the compiler must box per call site.
type Handler interface {
	Handle(arg uint64)
}

// HandlerFunc adapts a plain func to Handler, dropping the payload.
type HandlerFunc func()

// Handle calls f.
func (f HandlerFunc) Handle(uint64) { f() }

// event is a scheduled event record. Ties at the same firing instant are
// broken by (ins, seq): ins is the virtual time the event was scheduled at
// and seq the engine-local scheduling order. Among events filed by Schedule
// on a lone engine ins is redundant (seq order already refines
// insertion-time order, since seq only grows as virtual time advances); it
// carries information for events filed by ScheduleKeyed, whose ins is the
// instant they stand in for rather than the instant they were filed.
// Sharded runs depend on it: a packet crossing shards is re-scheduled in
// its destination shard whenever the conservative sync permits, long after
// same-instant local events were enqueued, and carrying the original
// emission time as ins restores the tie-break order the lone-engine run
// would have produced. Crossings do not consume local seq numbers; they
// carry an explicit key with the high bit set (see crossKey in channel.go),
// so the firing order is independent of *when* a crossing was drained —
// the property that lets the asynchronous engine drain mailboxes at
// arbitrary instants and still match the barrier engine byte for byte.
type event struct {
	at  Time
	ins Time
	seq uint64
	h   Handler
	arg uint64
}

// Engine runs events in virtual-time order.
type Engine struct {
	now     Time
	sched   *timingWheel
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// New returns an engine at time zero with a deterministic RNG.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), sched: newTimingWheel()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule schedules h.Handle(arg) at absolute virtual time t (clamped to
// now). With a pointer-typed h this allocates nothing, which makes it the
// scheduling primitive for anything that fires per packet.
func (e *Engine) Schedule(t Time, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.sched.push(event{at: t, ins: e.now, seq: e.seq, h: h, arg: arg})
}

// ReserveSeq consumes and returns the next scheduling sequence number
// without scheduling anything — for handlers that elide an intermediate
// event (see ScheduleKeyed).
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleKeyed schedules h.Handle(arg) at t (clamped to now) under an
// explicit tie-break key (ins, seq) instead of (now, next sequence), for
// callers that must reproduce the key another scheduling instant would have
// produced. Back-dated and future-dated keys are ordered alike.
//
//   - Handlers that elide an intermediate event. A link knows at start of
//     serialization when the packet departs, so it books the delivery at
//     once under ins = the departure instant (where the elided
//     transmit-done event would have scheduled it), and files the
//     transmit-done event itself, only if something comes to need it, under
//     the start instant and the sequence number it took there with
//     ReserveSeq.
//
//   - Shard-crossing deliveries drained from a mailbox. ins is the emission
//     time in the source shard, which slots the event into the tie-break
//     position a lone engine would have given it (where the delivery would
//     have been scheduled the instant transmission completed). Crossings
//     carry crossKey (high bit set, then source shard, channel, FIFO index)
//     instead of a local sequence number, with two consequences that make
//     the asynchronous conservative engine possible: local events always
//     precede crossings at an equal (at, ins) — exactly what the barrier
//     engine produced, since a crossing was always drained after every
//     same-instant local event had been scheduled — and the firing order no
//     longer depends on *when* the crossing was drained, so mailboxes can
//     be emptied incrementally at any instant the channel clocks permit
//     without perturbing a single local seq number.
func (e *Engine) ScheduleKeyed(t, ins Time, seq uint64, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	e.sched.push(event{at: t, ins: ins, seq: seq, h: h, arg: arg})
}

// ScheduleAfter schedules h.Handle(arg) d nanoseconds from now.
func (e *Engine) ScheduleAfter(d Time, h Handler, arg uint64) {
	e.Schedule(e.now+d, h, arg)
}

// Stop halts the run loop after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until none remain or Stop is called. It returns the
// number of events processed.
func (e *Engine) Run() int {
	n := 0
	for e.sched.len() > 0 && !e.stopped {
		ev := e.sched.pop()
		e.now = ev.at
		ev.h.Handle(ev.arg)
		n++
	}
	return n
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to the deadline. It returns the number of events processed.
func (e *Engine) RunUntil(deadline Time) int {
	return e.runTo(deadline, true)
}

// runTo processes events up to deadline — inclusive of events at exactly the
// deadline when inclusive is true, exclusive otherwise — then advances the
// clock to the deadline. The exclusive form is the shard-quantum primitive:
// a quantum ends just before its horizon instant so that crossings drained
// from other shards afterwards can still be ordered among local events of
// that instant.
func (e *Engine) runTo(deadline Time, inclusive bool) int {
	n := 0
	for !e.stopped {
		at, ok := e.sched.peek()
		if !ok || at > deadline || (!inclusive && at == deadline) {
			break
		}
		ev := e.sched.pop()
		e.now = ev.at
		ev.h.Handle(ev.arg)
		n++
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// peekTime returns the firing time of the earliest pending event without
// removing it — the query ShardGroup.Run finds the next pending instant
// with. The wheel answers it from its occupancy bitmaps and per-bucket
// minima (no sorting).
func (e *Engine) peekTime() (Time, bool) { return e.sched.peek() }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.sched.len() }
