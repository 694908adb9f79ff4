package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// crossSink records crossing deliveries; the int payload travels in the
// event arg.
type crossSink struct {
	eng *Engine
	log *[]string
}

func (s *crossSink) Handle(arg uint64) {
	*s.log = append(*s.log, fmt.Sprintf("recv %d @%d", arg, s.eng.Now()))
}

// TestShardGroupCrossing sends values between two shards over a
// 10 ns-lookahead channel and checks delivery times and determinism, on the
// runtime in both execution modes and on the epoch oracle.
func TestShardGroupCrossing(t *testing.T) {
	run := func(parallel bool, mode syncImpl) []string {
		var log []string
		e0, e1 := New(1), New(2)
		g := NewShardGroup([]*Engine{e0, e1})
		g.Parallel = parallel
		c01 := g.AddChannel(0, 1, 10)
		g.AddChannel(1, 0, 10)
		sink1 := &crossSink{eng: e1, log: &log}

		// Shard 0 emits at t=5 and t=7.
		e0.Schedule(5, HandlerFunc(func() { c01.Send(e0.Now(), sink1, 100) }), 0)
		e0.Schedule(7, HandlerFunc(func() { c01.Send(e0.Now(), sink1, 200) }), 0)
		// A local shard-1 event at the exact arrival instant of value 100,
		// inserted earlier in virtual time (ins=0): must fire before it.
		e1.Schedule(15, HandlerFunc(func() { log = append(log, fmt.Sprintf("local @%d", e1.Now())) }), 0)
		mode.runUntil(g, 40)
		return log
	}

	want := []string{"local @15", "recv 100 @15", "recv 200 @17"}
	for _, mode := range syncImpls {
		seq := run(false, mode)
		if fmt.Sprint(seq) != fmt.Sprint(want) {
			t.Fatalf("%v sequential crossing log = %v, want %v", mode, seq, want)
		}
		if par := run(true, mode); fmt.Sprint(par) != fmt.Sprint(seq) {
			t.Fatalf("%v parallel log %v != sequential log %v", mode, par, seq)
		}
	}
}

// TestShardGroupMergeOrder drains simultaneous crossings from two source
// shards and checks the deterministic (at, ins, src, channel, fifo) merge.
func TestShardGroupMergeOrder(t *testing.T) {
	for _, mode := range syncImpls {
		var log []string
		e0, e1, e2 := New(1), New(2), New(3)
		g := NewShardGroup([]*Engine{e0, e1, e2})
		g.Parallel = false
		c02 := g.AddChannel(0, 2, 10)
		c12 := g.AddChannel(1, 2, 10)
		sink := &crossSink{eng: e2, log: &log}

		// Both shards emit at t=3 (same at, same ins): source shard breaks
		// the tie, so shard 0's value delivers first; the t=2 emission from
		// shard 1 delivers first outright (at=12 < 13).
		e1.Schedule(2, HandlerFunc(func() { c12.Send(e1.Now(), sink, 902) }), 0)
		e0.Schedule(3, HandlerFunc(func() { c02.Send(e0.Now(), sink, 3) }), 0)
		e1.Schedule(3, HandlerFunc(func() { c12.Send(e1.Now(), sink, 903) }), 0)
		mode.runUntil(g, 30)

		want := []string{"recv 902 @12", "recv 3 @13", "recv 903 @13"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("%v merge order = %v, want %v", mode, log, want)
		}
	}
}

// TestShardGroupDeadlineOnEpochBoundary pins the end==deadline case: a
// crossing delivering exactly at the RunUntil deadline must still be
// ordered by insertion stamp against local events of that instant (the
// drain has to happen before the instant is processed).
func TestShardGroupDeadlineOnEpochBoundary(t *testing.T) {
	for _, mode := range syncImpls {
		var log []string
		e0, e1 := New(1), New(2)
		g := NewShardGroup([]*Engine{e0, e1})
		g.Parallel = false
		c01 := g.AddChannel(0, 1, 10)
		sink := &crossSink{eng: e1, log: &log}

		// Crossing emitted at t=5 delivers at t=15 with ins=5; the local
		// event at t=15 is inserted at t=10 (ins=10), so the crossing fires
		// first.
		e0.Schedule(5, HandlerFunc(func() { c01.Send(e0.Now(), sink, 1) }), 0)
		e1.Schedule(10, HandlerFunc(func() {
			e1.Schedule(15, HandlerFunc(func() { log = append(log, fmt.Sprintf("local @%d", e1.Now())) }), 0)
		}), 0)
		mode.runUntil(g, 15) // deadline == 5 + lookahead: horizon lands on the deadline
		want := []string{"recv 1 @15", "local @15"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("%v deadline-on-boundary order = %v, want %v", mode, log, want)
		}
	}
}

// TestShardGroupQuantumExclusiveAtHorizon is the case a quantum must end
// *before* its horizon instant for: two crossings from different channels
// land on one instant, and the one that sorts first (older insertion stamp)
// becomes visible last. Shard 2 hears from shard 0 over a 10 ns channel and
// from shard 1 over a 4 ns one, and at t=0 asks shard 0 (10 ns away) to send.
// In round-robin order, round one leaves shard 0 idle at clock 10 (the
// request is not emitted yet), takes shard 1 to clock 18 past its t=16 send
// (delivering at 20, ins=16), and gives shard 2 the horizon 10+10 = 20 with
// only that crossing in its mailbox. Round two delivers the request at t=10
// and shard 0's reply lands at 20 too, with ins=10: it must fire first.
// Running shard 2's first quantum inclusively fires the ins=16 crossing a
// round early. The sequential runtime produces this interleaving every
// time; the parallel arm and the oracle must agree with it.
func TestShardGroupQuantumExclusiveAtHorizon(t *testing.T) {
	run := func(parallel bool, mode syncImpl) []string {
		var log []string
		e0, e1, e2 := New(1), New(2), New(3)
		g := NewShardGroup([]*Engine{e0, e1, e2})
		g.Parallel = parallel
		c02 := g.AddChannel(0, 2, 10)
		c12 := g.AddChannel(1, 2, 4)
		c20 := g.AddChannel(2, 0, 10)
		g.AddChannel(2, 1, 18) // paces shard 1: its first quantum ends at t=18
		sink := &crossSink{eng: e2, log: &log}

		reply := HandlerFunc(func() { c02.Send(e0.Now(), sink, 10) })
		e2.Schedule(0, HandlerFunc(func() { c20.Send(e2.Now(), reply, 0) }), 0)
		e1.Schedule(16, HandlerFunc(func() { c12.Send(e1.Now(), sink, 16) }), 0)
		mode.runUntil(g, 40)
		return log
	}

	want := []string{"recv 10 @20", "recv 16 @20"}
	for _, mode := range syncImpls {
		for _, parallel := range []bool{false, true} {
			if got := run(parallel, mode); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v parallel=%v: same-instant crossings fired as %v, want %v", mode, parallel, got, want)
			}
		}
	}
}

// TestShardGroupRunIndependent covers the no-channel path: shards drain
// fully and clocks settle at the latest shard's last event.
func TestShardGroupRunIndependent(t *testing.T) {
	e0, e1 := New(1), New(2)
	g := NewShardGroup([]*Engine{e0, e1})
	fired := 0
	e0.Schedule(10, HandlerFunc(func() { fired++ }), 0)
	e1.Schedule(25, HandlerFunc(func() { fired++ }), 0)
	if n := g.Run(); n != 2 || fired != 2 {
		t.Fatalf("Run processed %d events (fired %d), want 2", n, fired)
	}
	if g.Now() != 25 {
		t.Fatalf("group clock = %d, want 25", g.Now())
	}
}

// TestShardGroupStoppedShard: stopping one shard's engine mid-run must not
// livelock the group loop — its remaining events are abandoned (as with
// Engine.Run after Stop) while other shards keep running to the deadline.
func TestShardGroupStoppedShard(t *testing.T) {
	for _, mode := range syncImpls {
		for _, parallel := range []bool{false, true} {
			e0, e1 := New(1), New(2)
			g := NewShardGroup([]*Engine{e0, e1})
			g.Parallel = parallel
			c01 := g.AddChannel(0, 1, 10)
			var log []string
			sink := &crossSink{eng: e1, log: &log}
			_ = c01

			fired := 0
			e0.Schedule(5, HandlerFunc(func() { e0.Stop() }), 0)
			e0.Schedule(6, HandlerFunc(func() { fired++ }), 0) // never runs: the shard stopped
			e1.Schedule(8, HandlerFunc(func() { fired++ }), 0)
			mode.runUntil(g, 20) // must return despite shard 0's abandoned event
			if fired != 1 {
				t.Fatalf("%v parallel=%v: fired = %d, want only shard 1's event", mode, parallel, fired)
			}
			if e1.Now() != 20 {
				t.Fatalf("%v parallel=%v: running shard clock = %d, want 20", mode, parallel, e1.Now())
			}
			_ = sink
		}
	}
}

// TestShardGroupStoppedDest: crossings parked toward a stopped shard must
// not hang the full-drain Run loop — they are simply never delivered.
func TestShardGroupStoppedDest(t *testing.T) {
	for _, mode := range syncImpls {
		var log []string
		e0, e1 := New(1), New(2)
		g := NewShardGroup([]*Engine{e0, e1})
		g.Parallel = false
		c01 := g.AddChannel(0, 1, 10)
		sink := &crossSink{eng: e1, log: &log}

		e1.Schedule(1, HandlerFunc(func() { e1.Stop() }), 0)
		e0.Schedule(5, HandlerFunc(func() { c01.Send(e0.Now(), sink, 42) }), 0)
		mode.run(g) // must terminate with the crossing undelivered or abandoned
		if fmt.Sprint(log) != "[]" {
			t.Fatalf("%v: stopped shard delivered crossings: %v", mode, log)
		}
	}
}

// TestShardGroupParallelEmptyRun: a parallel group with nothing to do must
// return cleanly and repeatedly (regression for worker-startup races on
// zero-epoch runs).
func TestShardGroupParallelEmptyRun(t *testing.T) {
	for i := 0; i < 50; i++ {
		g := NewShardGroup([]*Engine{New(1), New(2)})
		g.Parallel = true
		if n := g.RunUntil(10); n != 0 {
			t.Fatalf("empty RunUntil processed %d events", n)
		}
		g2 := NewShardGroup([]*Engine{New(1), New(2)})
		g2.Parallel = true
		if n := g2.Run(); n != 0 {
			t.Fatalf("empty Run processed %d events", n)
		}
	}
}

// TestShardGroupNoGoroutineGrowth pins the persistent-worker contract: the
// testbed pattern of thousands of short RunUntil calls must not spawn a
// goroutine per call — workers are created once at warm-up and parked
// between runs.
func TestShardGroupNoGoroutineGrowth(t *testing.T) {
	e0, e1 := New(1), New(2)
	g := NewShardGroup([]*Engine{e0, e1})
	g.Parallel = true
	c01 := g.AddChannel(0, 1, 10)
	var log []string
	sink := &crossSink{eng: e1, log: &log}
	tick := Time(0)
	every(e0, 5, 5, func() { c01.Send(e0.Now(), sink, uint64(tick)); tick++ })

	g.RunUntil(10) // warm-up: spawns the two persistent workers
	base := runtime.NumGoroutine()
	for d := Time(20); d <= 5000; d += 10 {
		g.RunUntil(d)
	}
	// Other tests' finalized groups may retire workers concurrently, so
	// only growth is a failure.
	if now := runtime.NumGoroutine(); now > base {
		t.Fatalf("goroutines grew across RunUntil calls: %d -> %d", base, now)
	}
	if len(log) == 0 {
		t.Fatal("crossings never delivered")
	}
}

// TestShardGroupResume checks that RunUntil is resumable: crossings parked
// near a deadline deliver correctly on the next call.
func TestShardGroupResume(t *testing.T) {
	for _, mode := range syncImpls {
		var log []string
		e0, e1 := New(1), New(2)
		g := NewShardGroup([]*Engine{e0, e1})
		c01 := g.AddChannel(0, 1, 10)
		sink := &crossSink{eng: e1, log: &log}

		e0.Schedule(18, HandlerFunc(func() { c01.Send(e0.Now(), sink, 7) }), 0) // delivers at 28
		mode.runUntil(g, 20)
		if len(log) != 0 {
			t.Fatalf("%v: crossing delivered early: %v", mode, log)
		}
		if e0.Now() != 20 || e1.Now() != 20 {
			t.Fatalf("%v: clocks at (%d,%d), want (20,20)", mode, e0.Now(), e1.Now())
		}
		mode.runUntil(g, 30)
		if want := []string{"recv 7 @28"}; fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("%v: after resume log = %v, want %v", mode, log, want)
		}
	}
}

// TestShardGroupLookaheadCached pins the cached lookahead derivations:
// group-wide minimum and per-shard incoming minima maintained incrementally
// by AddChannel.
func TestShardGroupLookaheadCached(t *testing.T) {
	g := NewShardGroup([]*Engine{New(1), New(2), New(3)})
	if g.Lookahead() != 0 {
		t.Fatalf("empty group lookahead = %d, want 0", g.Lookahead())
	}
	g.AddChannel(0, 1, 50)
	g.AddChannel(1, 2, 20)
	g.AddChannel(2, 0, 80)
	if g.Lookahead() != 20 {
		t.Fatalf("lookahead = %d, want 20", g.Lookahead())
	}
	if d, ok := g.MinIncomingDelay(1); !ok || d != 50 {
		t.Fatalf("minIn(1) = %d,%v, want 50", d, ok)
	}
	if d, ok := g.MinIncomingDelay(2); !ok || d != 20 {
		t.Fatalf("minIn(2) = %d,%v, want 20", d, ok)
	}
	// Per-channel floors dominate the global window — the asynchronous
	// engine's advantage in one inequality.
	for i := 0; i < 3; i++ {
		if d, ok := g.MinIncomingDelay(i); ok && d < g.Lookahead() {
			t.Fatalf("minIn(%d)=%d below global lookahead %d", i, d, g.Lookahead())
		}
	}
}

// TestShardGroupSyncStats checks the deterministic counters: the runtime
// must sync far less often than the epoch oracle on the same workload.
func TestShardGroupSyncStats(t *testing.T) {
	build := func() (*ShardGroup, *[]string) {
		var log []string
		e0, e1 := New(1), New(2)
		g := NewShardGroup([]*Engine{e0, e1})
		g.Parallel = false
		c01 := g.AddChannel(0, 1, 10)
		g.AddChannel(1, 0, 10)
		sink := &crossSink{eng: e1, log: &log}
		tick := uint64(0)
		every(e0, 3, 3, func() { c01.Send(e0.Now(), sink, tick); tick++ })
		return g, &log
	}

	gc, logc := build()
	ge, loge := build()
	gc.RunUntil(3000)
	runUntilEpochRef(ge, 3000)
	if fmt.Sprint(*logc) != fmt.Sprint(*loge) {
		t.Fatalf("runtime and oracle disagree:\nruntime %v\noracle  %v", *logc, *loge)
	}
	sc, se := gc.Stats(), ge.Stats()
	if sc.Crossings != se.Crossings || sc.Crossings == 0 {
		t.Fatalf("crossings: runtime %d, oracle %d", sc.Crossings, se.Crossings)
	}
	if sc.Epochs != 1 {
		t.Fatalf("runtime sync points = %d, want 1 (one dispatch-join)", sc.Epochs)
	}
	if se.Epochs < 5*sc.Epochs {
		t.Fatalf("oracle synced only %d times vs the runtime's %d — counters broken", se.Epochs, sc.Epochs)
	}
}

// TestRunToExclusive pins the quantum primitive: events at exactly the
// deadline stay pending, and the clock still advances to the deadline.
func TestRunToExclusive(t *testing.T) {
	e := New(1)
	fired := []Time{}
	e.Schedule(5, HandlerFunc(func() { fired = append(fired, 5) }), 0)
	e.Schedule(10, HandlerFunc(func() { fired = append(fired, 10) }), 0)
	if n := e.runTo(10, false); n != 1 {
		t.Fatalf("exclusive runTo processed %d events, want 1", n)
	}
	if e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("now=%d pending=%d, want 10/1", e.Now(), e.Pending())
	}
	if n := e.runTo(10, true); n != 1 {
		t.Fatalf("inclusive runTo processed %d events, want 1", n)
	}
	if fmt.Sprint(fired) != "[5 10]" {
		t.Fatalf("fired = %v", fired)
	}
}

// TestCrossingInsertionOrder pins the tie-break the sharded runtime relies
// on: a crossing drained late with an early insertion stamp fires before
// same-instant events inserted later in virtual time.
func TestCrossingInsertionOrder(t *testing.T) {
	e := New(1)
	var order []string
	e.Schedule(4, HandlerFunc(func() { // inserted at virtual time 4
		e.Schedule(20, HandlerFunc(func() { order = append(order, "ins4") }), 0)
	}), 0)
	e.RunUntil(10)
	// Simulates a drain: the crossing was emitted at time 2.
	e.ScheduleKeyed(20, 2, crossKey(0, 0, 0), HandlerFunc(func() { order = append(order, "crossing-ins2") }), 0)
	e.Run()
	if fmt.Sprint(order) != "[crossing-ins2 ins4]" {
		t.Fatalf("order = %v, want crossing first (earlier insertion stamp)", order)
	}
}

// TestCrossingKeyOrder pins the key layout: locals before crossings at an
// equal (at, ins); crossings among themselves by (src, channel, fifo).
func TestCrossingKeyOrder(t *testing.T) {
	e := New(1)
	var order []uint64
	rec := func(id uint64) Handler { return HandlerFunc(func() { order = append(order, id) }) }
	// All fire at t=20 with ins=0. Locals get seq 1,2; crossings get keys.
	e.Schedule(20, rec(1), 0)
	e.ScheduleKeyed(20, 0, crossKey(1, 3, 0), rec(130), 0)
	e.ScheduleKeyed(20, 0, crossKey(0, 7, 1), rec(71), 0)
	e.ScheduleKeyed(20, 0, crossKey(0, 7, 0), rec(70), 0)
	e.Schedule(20, rec(2), 0)
	e.Run()
	want := "[1 2 70 71 130]"
	if fmt.Sprint(order) != want {
		t.Fatalf("key order = %v, want %s", order, want)
	}
}

// TestSPSC exercises the mailbox queue across segment boundaries and spare
// recycling (single-threaded: the SPSC contract is per-side single-owner,
// and the shard runtime's dispatch edges provide the cross-side ordering).
func TestSPSC(t *testing.T) {
	var q SPSC[int]
	q.Init()
	next := 0
	for round := 0; round < 5; round++ {
		n := spscSegCap*2 + 17 // force segment hops and spare reuse
		for i := 0; i < n; i++ {
			q.Push(round*1000 + i)
		}
		if q.Avail() != n {
			t.Fatalf("avail = %d, want %d", q.Avail(), n)
		}
		for i := 0; i < n; i++ {
			if got := *q.Front(); got != round*1000+i {
				t.Fatalf("front = %d, want %d", got, round*1000+i)
			}
			q.Advance()
			next++
		}
		if q.Avail() != 0 {
			t.Fatalf("drained queue has %d pending", q.Avail())
		}
	}
}

// ticker runs fn at start and then every interval, forever.
type ticker struct {
	eng      *Engine
	interval Time
	fn       func()
}

func (t *ticker) Handle(uint64) {
	t.fn()
	t.eng.ScheduleAfter(t.interval, t, 0)
}

func every(e *Engine, start, interval Time, fn func()) {
	e.Schedule(start, &ticker{eng: e, interval: interval, fn: fn}, 0)
}
