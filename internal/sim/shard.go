package sim

// Conservative parallel discrete-event simulation (PDES) across topology
// shards. Each shard owns one Engine and all state of the nodes assigned to
// it; shards exchange boundary traffic over directed Channels (one per
// shard-crossing link) whose propagation delays provide the conservative
// lookahead: nothing a shard does at virtual time t can affect another
// shard before t + the channel's delay.
//
// The synchronization algorithm is asynchronous and CMB-style: each shard
// independently advances to the minimum over its incoming channels of
// (source-shard published clock + channel delay), draining that channel's
// lock-free mailbox incrementally as it goes. Shards never rendezvous
// inside a run — the only group-wide sync points are the dispatch and join
// of the run itself — so a shard pair joined only by slow links never
// throttles the rest.
//
// The result matches a single-threaded global-epoch barrier merge (lockstep
// windows bounded by the group-wide minimum channel delay, a full mailbox
// drain per window) byte for byte; that loop is kept as the test oracle
// runUntilEpochRef/runEpochAllRef in oracle_test.go. Every crossing carries
// a deterministic event key — (high bit, source shard, channel, FIFO index)
// in the seq field, ordered after same-(at, ins) local events — so the
// instant a mailbox happens to be drained is unobservable (see
// Engine.ScheduleKeyed and crossKey). Determinism therefore does not depend
// on goroutine scheduling: for a given seed and shard count, results are
// reproducible and match the single-engine run except for the measure-zero
// case of two causally unrelated events in different shards colliding on
// both firing and insertion instants.
//
// Shard workers are persistent: the first parallel run spawns one goroutine
// per shard, parked on a command channel between runs, so the per-RunUntil
// cost of the testbed's epoch-sized run pattern is a channel send and a
// WaitGroup join, not a spawn.

import (
	"fmt"
	"runtime"
	"sync"
)

// ShardGroup synchronizes N engines conservatively (see the comment at the
// top of this file).
type ShardGroup struct {
	// Parallel controls whether runs execute shards on the persistent
	// worker goroutines. Determinism holds either way; sequential runs are
	// useful to debug, and they make even the scheduling-sensitive
	// diagnostics in SyncStats deterministic.
	Parallel bool

	st *groupState
}

// groupState is everything the persistent shard workers touch. It is split
// from ShardGroup so worker goroutines hold no reference to the group
// itself: when the group becomes unreachable its finalizer closes the
// command channels and the workers exit, instead of leaking one parked
// goroutine per shard per group a test suite ever created.
type groupState struct {
	engines  []*Engine
	channels []*Channel
	in       [][]*Channel // incoming channels per destination shard
	down     [][]int      // downstream shards per source shard (dedup)

	// lookahead is the group-wide minimum channel delay; minIn is the
	// per-shard minimum incoming delay. Both are maintained by AddChannel.
	lookahead Time
	minIn     []Time

	// clocks are the per-shard published virtual clocks the asynchronous
	// engine computes its per-channel horizons from; wake holds one sticky
	// wake token per shard (capacity 1, non-blocking sends), so a shard
	// that parks after an upstream publish still observes it.
	clocks []shardClock
	wake   []chan struct{}

	// Persistent worker plumbing, spawned on the first parallel run. A
	// command is the deadline of one asynchronous run.
	cmds   []chan Time
	wg     sync.WaitGroup
	counts []int

	// Sync counters (see SyncStats). epochs is coordinator-owned; the
	// per-shard arrays are each written by one goroutine at a time.
	epochs    uint64
	crossings []padCounter
	drains    []padCounter
	parks     []padCounter

	// seqDone is scratch for the sequential asynchronous loop.
	seqDone []bool
}

// NewShardGroup creates a group over the given engines. Engines are indexed
// by shard number; boundary channels are registered as the topology is
// wired (AddChannel).
func NewShardGroup(engines []*Engine) *ShardGroup {
	if len(engines) > maxKeyShards {
		panic(fmt.Sprintf("sim: %d shards exceed the crossing-key limit (%d)",
			len(engines), maxKeyShards))
	}
	n := len(engines)
	st := &groupState{
		engines:   engines,
		in:        make([][]*Channel, n),
		down:      make([][]int, n),
		minIn:     make([]Time, n),
		clocks:    make([]shardClock, n),
		wake:      make([]chan struct{}, n),
		counts:    make([]int, n),
		crossings: make([]padCounter, n),
		drains:    make([]padCounter, n),
		parks:     make([]padCounter, n),
		seqDone:   make([]bool, n),
	}
	for i := range st.wake {
		st.wake[i] = make(chan struct{}, 1)
	}
	return &ShardGroup{
		Parallel: runtime.GOMAXPROCS(0) > 1,
		st:       st,
	}
}

// Engines returns the per-shard engines.
func (g *ShardGroup) Engines() []*Engine { return g.st.engines }

// AddChannel registers a directed shard-crossing channel with the given
// propagation delay (its lookahead contribution) and returns it; the
// source shard parks crossings with Channel.Send.
func (g *ShardGroup) AddChannel(src, dst int, delay Time) *Channel {
	st := g.st
	if src < 0 || src >= len(st.engines) || dst < 0 || dst >= len(st.engines) {
		panic(fmt.Sprintf("sim: boundary channel shards (%d->%d) out of range", src, dst))
	}
	if delay <= 0 {
		panic("sim: boundary channel needs positive propagation delay for lookahead")
	}
	if len(st.channels) >= maxKeyChannels {
		panic(fmt.Sprintf("sim: %d boundary channels exceed the crossing-key limit", len(st.channels)))
	}
	c := &Channel{st: st, idx: len(st.channels), src: src, dst: dst, delay: delay}
	c.q.Init()
	st.channels = append(st.channels, c)
	st.in[dst] = append(st.in[dst], c)
	known := false
	for _, d := range st.down[src] {
		if d == dst {
			known = true
			break
		}
	}
	if !known {
		st.down[src] = append(st.down[src], dst)
	}
	if st.lookahead == 0 || delay < st.lookahead {
		st.lookahead = delay
	}
	if st.minIn[dst] == 0 || delay < st.minIn[dst] {
		st.minIn[dst] = delay
	}
	return c
}

// NumChannels returns the number of registered crossing channels.
func (g *ShardGroup) NumChannels() int { return len(g.st.channels) }

// Lookahead returns the group-wide conservative window: the minimum
// propagation delay over all boundary channels, or 0 if there are none
// (shards are then fully independent). Cached at registration.
func (g *ShardGroup) Lookahead() Time { return g.st.lookahead }

// MinIncomingDelay returns shard's per-channel lookahead floor — the
// minimum delay over its incoming channels — and whether it has any. The
// asynchronous engine advances each shard at least this far beyond the
// slowest upstream clock, which is never less than the global Lookahead
// and usually more: that inequality is what the per-channel engine buys.
func (g *ShardGroup) MinIncomingDelay(shard int) (Time, bool) {
	d := g.st.minIn[shard]
	return d, d > 0
}

// Stats returns the group's synchronization counters. Call between runs
// (counters are written by shard workers while a run is in flight).
func (g *ShardGroup) Stats() SyncStats {
	st := g.st
	s := SyncStats{Epochs: st.epochs}
	for i := range st.engines {
		s.Crossings += st.crossings[i].v
		s.Drains += st.drains[i].v
		if st.parks[i].v > s.MaxIdleParks {
			s.MaxIdleParks = st.parks[i].v
		}
	}
	return s
}

// Now returns the group's common run-end time (the maximum engine clock;
// engines share it at the end of every RunUntil).
func (g *ShardGroup) Now() Time {
	var t Time
	for _, e := range g.st.engines {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Pending returns the number of scheduled events across all shards plus
// crossings parked in channel mailboxes. Call between runs.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, e := range g.st.engines {
		n += e.Pending()
	}
	for _, c := range g.st.channels {
		n += c.q.Avail()
	}
	return n
}

// earliest returns the minimum pending-event time across shard schedulers.
// Stopped engines are skipped: their events will never run (matching
// Engine.Run's prompt return after Stop), so counting them would spin the
// run loop without progress.
func (g *ShardGroup) earliest() (Time, bool) {
	var min Time
	found := false
	for _, e := range g.st.engines {
		if e.stopped {
			continue
		}
		if t, ok := e.peekTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// earliestAnywhere extends earliest with crossings still parked in
// mailboxes (skipping channels into stopped shards, whose deliveries would
// never fire). Call between run quanta, with all workers parked.
func (g *ShardGroup) earliestAnywhere() (Time, bool) {
	min, found := g.earliest()
	for _, c := range g.st.channels {
		if g.st.engines[c.dst].stopped {
			continue
		}
		if t, ok := c.earliestPending(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// advanceAll moves every running engine clock forward to t (never
// backward; stopped engines keep their clocks, like Engine.RunUntil).
func (g *ShardGroup) advanceAll(t Time) {
	for _, e := range g.st.engines {
		if !e.stopped && e.now < t {
			e.now = t
		}
	}
}

// publish raises shard i's published clock to t (monotone) — the value
// downstream shards compute their horizons from. Producer-exclusive per
// shard: only i's worker (or the coordinator between runs) calls it.
func (st *groupState) publish(i int, t Time) {
	if Time(st.clocks[i].v.Load()) < t {
		st.clocks[i].v.Store(int64(t))
	}
}

// notify nudges every shard downstream of i: a sticky token per shard, so
// a consumer that checked its horizon before this publish and parks after
// it still wakes. Non-blocking — an already-pending token is enough.
func (st *groupState) notify(i int) {
	for _, d := range st.down[i] {
		select {
		case st.wake[d] <- struct{}{}:
		default:
		}
	}
}

// syncClocks aligns published clocks with the engines before a run
// (engines may have advanced via advanceAll since the last publish).
func (st *groupState) syncClocks() {
	for i, e := range st.engines {
		st.publish(i, e.now)
	}
}

// step runs one conservative quantum for shard i: snapshot the incoming
// clocks, drain what is visible, then run to the per-channel horizon. It
// returns events processed, whether the shard completed the run (reached
// the deadline, or stopped), and whether any progress was made.
//
// The snapshot MUST precede the drain: a crossing not yet visible to the
// drain was emitted at or after its source's snapshot clock, so its
// delivery time is at or beyond the horizon computed here — running to
// that horizon exclusively can never miss it.
func (st *groupState) step(i int, deadline Time) (n int, done, progress bool) {
	e := st.engines[i]
	if e.stopped {
		// A stopped shard abandons its events, but its clock must still
		// reach the deadline for downstream horizons — publish it, or every
		// shard it feeds would stall forever.
		st.publish(i, deadline)
		st.notify(i)
		return 0, true, true
	}
	horizon := Time(0)
	bounded := false
	for _, c := range st.in[i] {
		t := Time(st.clocks[c.src].v.Load()) + c.delay
		if !bounded || t < horizon {
			horizon, bounded = t, true
		}
	}
	drained := 0
	for _, c := range st.in[i] {
		drained += c.drainInto(e)
	}
	if drained > 0 {
		st.drains[i].v++
		progress = true
	}
	if !bounded || horizon > deadline {
		// No crossing can land at or before the deadline anymore (anything
		// still invisible delivers at or beyond the horizon): finish the
		// run inclusively.
		n = e.runTo(deadline, true)
		st.publish(i, deadline)
		st.notify(i)
		return n, true, true
	}
	if horizon > e.now {
		// Run exclusively to the horizon — a crossing can still deliver at
		// exactly that instant and must be drained first.
		n = e.runTo(horizon, false)
		if e.stopped {
			st.publish(i, deadline)
		} else {
			st.publish(i, horizon)
		}
		st.notify(i)
		return n, e.stopped, true
	}
	return 0, false, progress
}

// asyncWorker is the persistent worker's asynchronous run loop: quanta
// until done, parking on the wake token when no upstream clock permits
// progress. Liveness: the globally minimum running clock always has a
// horizon strictly beyond itself (all delays are positive), so some shard
// can always advance, and every publish notifies its downstream shards.
func (st *groupState) asyncWorker(i int, deadline Time) int {
	n := 0
	var idle uint64
	for {
		ev, done, progress := st.step(i, deadline)
		n += ev
		if done {
			break
		}
		if !progress {
			idle++
			<-st.wake[i]
		}
	}
	if idle > 0 {
		st.parks[i].v += idle
	}
	return n
}

// seqAsync is the asynchronous engine on the caller's goroutine
// (Parallel=false): deterministic round-robin quanta. A shard that cannot
// advance counts an idle quantum, mirroring the parallel workers' parks.
func (st *groupState) seqAsync(deadline Time) int {
	n, doneCount := 0, 0
	for i := range st.seqDone {
		st.seqDone[i] = false
	}
	for doneCount < len(st.engines) {
		progressed := false
		for i := range st.engines {
			if st.seqDone[i] {
				continue
			}
			ev, done, progress := st.step(i, deadline)
			n += ev
			if done {
				st.seqDone[i] = true
				doneCount++
			} else if !progress {
				st.parks[i].v++
			}
			if done || progress {
				progressed = true
			}
		}
		if !progressed {
			panic("sim: shard group deadlocked (no shard can advance; zero-delay channel?)")
		}
	}
	return n
}

// ensureWorkers spawns the persistent per-shard worker goroutines once.
// They park on their command channels between runs; a finalizer on the
// group closes the channels when the group becomes unreachable, so worker
// goroutines live exactly as long as their group.
func (g *ShardGroup) ensureWorkers() {
	st := g.st
	if st.cmds != nil {
		return
	}
	st.cmds = make([]chan Time, len(st.engines))
	for i := range st.engines {
		ch := make(chan Time, 1)
		st.cmds[i] = ch
		go func(i int, ch chan Time) {
			for deadline := range ch {
				st.counts[i] = st.asyncWorker(i, deadline)
				st.wg.Done()
			}
		}(i, ch)
	}
	runtime.SetFinalizer(g, func(fg *ShardGroup) {
		for _, ch := range fg.st.cmds {
			close(ch)
		}
	})
}

// dispatch runs every shard to the deadline — on the persistent workers
// when parallel, inline otherwise — and returns the events processed.
func (g *ShardGroup) dispatch(deadline Time) int {
	st := g.st
	if !g.Parallel || len(st.engines) < 2 {
		return st.seqAsync(deadline)
	}
	g.ensureWorkers()
	st.wg.Add(len(st.cmds))
	for _, ch := range st.cmds {
		ch <- deadline
	}
	st.wg.Wait()
	n := 0
	for _, c := range st.counts {
		n += c
	}
	return n
}

// RunUntil advances the whole group to the deadline: every event with
// timestamp <= deadline in every shard is processed, crossings included,
// and every engine clock ends at the deadline. It returns the number of
// events processed.
func (g *ShardGroup) RunUntil(deadline Time) int {
	st := g.st
	// The dispatch-join below is the only group-wide synchronization point:
	// shards coordinate pairwise through published clocks, never all-stop.
	st.epochs++
	st.syncClocks()
	n := g.dispatch(deadline)
	g.advanceAll(deadline)
	return n
}

// Run processes events until no shard has any left and all mailboxes are
// empty, then aligns every engine clock to the time of the last event. It
// returns the number of events processed.
func (g *ShardGroup) Run() int {
	// Rounds of RunUntil to the next pending instant anywhere (scheduled or
	// still parked in a mailbox). Each round is one dispatch-join; the tail
	// of a drained simulation is short, so the rendezvous cost stays
	// negligible.
	n := 0
	for {
		t, ok := g.earliestAnywhere()
		if !ok {
			break
		}
		n += g.RunUntil(t)
	}
	return n
}
