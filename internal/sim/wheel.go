package sim

// Hierarchical timing wheel: the engine's event scheduler. Where a binary
// heap pays O(log n) sift work on every push and pop — the top profile entry
// at fat-tree scale when the engine ran on one — the wheel pays amortized
// O(1): a push indexes straight into a power-of-two bucket, and a pop serves
// from a small sorted "ready" run refilled one bucket at a time.
//
// Layout. Four levels of 64 buckets each over virtual nanoseconds, with
// level-0 buckets 2.048 µs wide (so the levels span ~131 µs, ~8.4 ms,
// ~537 ms and ~34 s beyond the wheel's base time), plus an overflow band
// for anything farther out (idle timers, TCP RTO backstops, long
// experiment deadlines). An event lands in the lowest level whose bucket
// distance from the base fits, and cascades down as the base advances — at
// most once per level, which is the amortized-O(1) argument. The level-0
// width is tuned to the simulator's event spacing (transmit completions and
// propagation delays are single-digit microseconds at gigabit rates): wide
// enough that consecutive events batch into one sort-and-serve refill,
// narrow enough that a bucket's lazy sort stays a short insertion sort.
//
// Determinism contract. pop always returns the minimum pending event by the
// engine's full ordering key (at, ins, seq) — what a priority queue over
// that key would return. Buckets are unordered until consumed; when the base
// reaches the earliest bucket, its events are sorted lazily by the full key
// into the ready run. Events scheduled into the currently open ready window
// — including back-dated ScheduleKeyed insertions drained from shard
// mailboxes, whose ins stamps must land in the same tie-break position a
// lone engine would have given them — are merge-inserted into the remaining
// run by the same key. TestSchedulerEquivalence and FuzzSchedulerEquivalence
// pin the firing order against the binary-heap oracle (oracle_test.go) over
// adversarial schedules.
//
// peek answers "earliest pending event time" in O(levels) without sorting
// anything beyond the one bucket being consumed: each level keeps a 64-bit
// occupancy bitmap and per-bucket minimum, so Engine.runTo's exclusive
// horizons (which query the earliest pending event before every pop) stay
// cheap.

import (
	"math/bits"
	"slices"
)

const (
	wheelBits      = 6                // 64 buckets per level
	wheelBuckets   = 1 << wheelBits   // bucket count per level
	wheelMask      = wheelBuckets - 1 // index mask
	wheelGranShift = 11               // level-0 bucket width: 2048 ns
	wheelLevels    = 4                // reach: 64^4 * 2 µs ~ 34 s
	wheelTopShift  = wheelGranShift + wheelBits*(wheelLevels-1)
)

// wheelBucket is one unsorted event bin. min tracks the earliest firing time
// in the bucket; it is exact because events only leave a bucket when the
// whole bucket is drained (on expiry or cascade).
type wheelBucket struct {
	evs []event
	min Time
}

// add appends an event, maintaining the bucket minimum.
func (b *wheelBucket) add(ev event) {
	if len(b.evs) == 0 || ev.at < b.min {
		b.min = ev.at
	}
	b.evs = append(b.evs, ev)
}

// timingWheel is the engine's pending-event store. Zero value is not ready;
// use newTimingWheel.
type timingWheel struct {
	base  Time // all pending events fire at or after base
	count int  // total pending events, all levels + overflow + ready

	level [wheelLevels][wheelBuckets]wheelBucket
	occ   [wheelLevels]uint64 // per-level bucket occupancy bitmaps

	// ovf holds events beyond the top level's reach, unsorted with an exact
	// minimum; they re-enter the wheel when the base advances within reach.
	ovf    []event
	ovfMin Time

	// ready is the sorted run currently being served: every pending event
	// with at < readyEnd, ordered by (at, ins, seq), consumed from readyPos.
	// New events inside the window are merge-inserted behind readyPos.
	ready    []event
	readyPos int
	readyEnd Time // exclusive; 0 means no window is open
}

// newTimingWheel returns an empty wheel based at time zero. Every bin gets
// a small starting capacity up front: higher-level buckets rotate slowly
// (a level-2 bucket is first touched after ~8 ms of virtual time), so
// without pre-sizing their first appends would show up as rare steady-state
// allocations long after a workload's warmup. Bins that outgrow the seed
// capacity keep their grown backing arrays for the life of the engine.
func newTimingWheel() *timingWheel {
	w := &timingWheel{ready: make([]event, 0, 64), ovf: make([]event, 0, 16)}
	// Mid levels get the deepest bins: periodic work (flow pacing, control
	// rounds) concentrates at sub-millisecond-to-millisecond horizons, and
	// one level-1/2 bucket funnels many such timers before cascading.
	// Level 0 is one allocator size class above 16 events: links book a
	// delivery a whole serialization ahead, so deliveries that used to merge
	// straight into the open ready run now wait in a level-0 bucket, and the
	// steady-state bucket peak of the k=8 scale rows rose from 16 to 17.
	caps := [wheelLevels]int{18, 64, 64, 16}
	for l := range w.level {
		for i := range w.level[l] {
			w.level[l][i].evs = make([]event, 0, caps[l])
		}
	}
	return w
}

func (w *timingWheel) len() int { return w.count }

// push schedules ev. The engine has already clamped ev.at to >= now >= base.
func (w *timingWheel) push(ev event) {
	w.count++
	if ev.at < w.readyEnd {
		w.insertReady(ev)
		return
	}
	w.place(ev)
}

// place bins ev into the lowest level whose bucket distance from base fits,
// or the overflow band. Shared by push and cascading (which must not touch
// count).
func (w *timingWheel) place(ev event) {
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelGranShift + wheelBits*l)
		if (ev.at>>shift)-(w.base>>shift) < wheelBuckets {
			idx := int(ev.at>>shift) & wheelMask
			w.level[l][idx].add(ev)
			w.occ[l] |= 1 << uint(idx)
			return
		}
	}
	if len(w.ovf) == 0 || ev.at < w.ovfMin {
		w.ovfMin = ev.at
	}
	w.ovf = append(w.ovf, ev)
}

// insertReady merge-inserts ev into the live part of the ready run, keeping
// (at, ins, seq) order. Events already consumed (before readyPos) stay put:
// a back-dated key sorting before them would simply fire next, exactly as a
// priority queue would serve it.
func (w *timingWheel) insertReady(ev event) {
	lo, hi := w.readyPos, len(w.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(&w.ready[mid], &ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.ready = append(w.ready, event{})
	copy(w.ready[lo+1:], w.ready[lo:])
	w.ready[lo] = ev
}

// levelMin returns the earliest firing time at level l. Bucket numbers at a
// level are confined to [base's number, base's number+63], so scanning the
// occupancy bitmap in circular order from the base cursor finds the bucket
// with the smallest (i.e. earliest) window first; its tracked min is the
// level minimum.
func (w *timingWheel) levelMin(l int) (Time, bool) {
	m := w.occ[l]
	if m == 0 {
		return 0, false
	}
	c := uint(w.base>>uint(wheelGranShift+wheelBits*l)) & wheelMask
	rot := m>>c | m<<(wheelBuckets-c)
	idx := (uint(bits.TrailingZeros64(rot)) + c) & wheelMask
	return w.level[l][idx].min, true
}

// pendingMin returns the earliest firing time outside the ready run. Levels
// are not ordered against each other (an event parks at the level that fit
// when it was scheduled), so all of them — and the overflow — are consulted.
func (w *timingWheel) pendingMin() (Time, bool) {
	var best Time
	found := false
	for l := 0; l < wheelLevels; l++ {
		if t, ok := w.levelMin(l); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	if len(w.ovf) > 0 && (!found || w.ovfMin < best) {
		best, found = w.ovfMin, true
	}
	return best, found
}

// peek returns the earliest pending event time. It refills the ready run if
// needed so the common case (called before every pop by Engine.runTo) is a
// slice-front read.
func (w *timingWheel) peek() (Time, bool) {
	if w.count == 0 {
		return 0, false
	}
	if w.readyPos >= len(w.ready) {
		w.fill()
	}
	return w.ready[w.readyPos].at, true
}

// pop removes and returns the earliest event by (at, ins, seq). The wheel
// must be non-empty.
func (w *timingWheel) pop() event {
	if w.readyPos >= len(w.ready) {
		w.fill()
	}
	ev := w.ready[w.readyPos]
	w.ready[w.readyPos] = event{} // release the handler for GC
	w.readyPos++
	w.count--
	return ev
}

// fill advances the base to the earliest pending event, cascades buckets the
// base has entered, and sorts that event's level-0 bucket into a fresh ready
// run. The wheel must hold at least one event outside the ready run.
func (w *timingWheel) fill() {
	w.ready = w.ready[:0]
	w.readyPos = 0
	w.readyEnd = 0
	m, _ := w.pendingMin()
	w.advance(m)
	idx := int(m>>wheelGranShift) & wheelMask
	b := &w.level[0][idx]
	w.ready = append(w.ready, b.evs...)
	for i := range b.evs {
		b.evs[i] = event{}
	}
	b.evs = b.evs[:0]
	w.occ[0] &^= 1 << uint(idx)
	sortEvents(w.ready)
	w.readyEnd = (m>>wheelGranShift + 1) << wheelGranShift
}

// advance moves the base to m (the global pending minimum) and cascades the
// higher-level buckets the base just entered down to finer levels. Only the
// bucket containing m can be non-empty at each level — everything earlier
// would fire before the global minimum — and once a level's bucket number is
// unchanged all coarser levels' are too.
func (w *timingWheel) advance(m Time) {
	old := w.base
	w.base = m
	for l := 1; l < wheelLevels; l++ {
		shift := uint(wheelGranShift + wheelBits*l)
		if old>>shift == m>>shift {
			break
		}
		idx := int(m>>shift) & wheelMask
		if w.occ[l]&(1<<uint(idx)) == 0 {
			continue
		}
		w.occ[l] &^= 1 << uint(idx)
		b := &w.level[l][idx]
		evs := b.evs
		b.evs = evs[:0]
		// place re-bins strictly below level l (the bucket distance at this
		// level is now zero), so it never appends back into evs.
		for i := range evs {
			w.place(evs[i])
			evs[i] = event{}
		}
	}
	if len(w.ovf) > 0 && (w.ovfMin>>wheelTopShift)-(m>>wheelTopShift) < wheelBuckets {
		// The overflow minimum is back within the wheel's reach: re-bin the
		// band. place may re-append still-distant events onto w.ovf, which
		// aliases evs — so entries are zeroed only beyond the retained tail.
		evs := w.ovf
		w.ovf = w.ovf[:0]
		w.ovfMin = 0
		for i := range evs {
			w.place(evs[i])
		}
		for i := len(w.ovf); i < len(evs); i++ {
			evs[i] = event{}
		}
	}
}

// eventLess is the engine's total event order: firing time, then insertion
// (emission) time, then engine-local scheduling sequence.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ins != b.ins {
		return a.ins < b.ins
	}
	return a.seq < b.seq
}

// sortEvents orders a drained bucket by the full event key without
// allocating: insertion sort for the typical near-singleton bucket, the
// stdlib's generic sort (no interface boxing) for rare big same-window
// bursts.
func sortEvents(evs []event) {
	if len(evs) <= 16 {
		for i := 1; i < len(evs); i++ {
			for j := i; j > 0 && eventLess(&evs[j], &evs[j-1]); j-- {
				evs[j], evs[j-1] = evs[j-1], evs[j]
			}
		}
		return
	}
	slices.SortFunc(evs, func(a, b event) int {
		if eventLess(&a, &b) {
			return -1
		}
		return 1
	})
}
