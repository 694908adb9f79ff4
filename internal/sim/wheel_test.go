package sim

import (
	"testing"
	"unsafe"
)

// The event record is five words; the wheel's bucket seed capacities are
// counted in events, so a sixth word grows every engine by a sixth.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event is %d bytes, want 48", got)
	}
}

// popAll drains the wheel, asserting the count bookkeeping, and returns the
// events in pop order.
func popAll(t *testing.T, w *timingWheel) []event {
	t.Helper()
	var out []event
	for w.len() > 0 {
		pt, ok := w.peek()
		ev := w.pop()
		if !ok || pt != ev.at {
			t.Fatalf("peek %d/%v disagrees with pop %d", pt, ok, ev.at)
		}
		out = append(out, ev)
	}
	if _, ok := w.peek(); ok {
		t.Fatal("peek reports events on an empty wheel")
	}
	return out
}

// Events spread across every level and the overflow band pop in full-key
// order.
func TestWheelCrossLevelOrder(t *testing.T) {
	w := newTimingWheel()
	times := []Time{
		3,                // level 0, first bucket
		2047, 2048, 2049, // level-0 bucket boundary
		140_000,           // level 1
		20 * Millisecond,  // level 2
		600 * Millisecond, // level 3
		40 * Second,       // overflow
		60 * Second,       // overflow
		2 * Second,        // level 3
		170_000,           // level 1
	}
	for i, at := range times {
		w.push(event{at: at, ins: 0, seq: uint64(i + 1)})
	}
	got := popAll(t, w)
	if len(got) != len(times) {
		t.Fatalf("popped %d of %d", len(got), len(times))
	}
	for i := 1; i < len(got); i++ {
		if eventLess(&got[i], &got[i-1]) {
			t.Fatalf("out of order at %d: %v after %v", i, got[i].at, got[i-1].at)
		}
	}
}

// Same-bucket ties break by (at, ins, seq) — including back-dated ins
// stamps pushed into the open ready window.
func TestWheelTieBreaks(t *testing.T) {
	w := newTimingWheel()
	w.push(event{at: 100, ins: 100, seq: 4})
	w.push(event{at: 100, ins: 50, seq: 5})
	w.push(event{at: 100, ins: 100, seq: 2})
	w.push(event{at: 99, ins: 99, seq: 9})
	// Open the ready window at t=99, then inject a back-dated crossing.
	if ev := w.pop(); ev.at != 99 {
		t.Fatalf("first pop at %d", ev.at)
	}
	w.push(event{at: 100, ins: 10, seq: 12}) // oldest emission, latest seq
	var seqs []uint64
	for w.len() > 0 {
		seqs = append(seqs, w.pop().seq)
	}
	want := []uint64{12, 5, 2, 4} // ins 10, ins 50, then ins 100 by seq
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("tie order %v, want %v", seqs, want)
		}
	}
}

// The overflow band drains back into the wheel as the base advances, even
// when its events span several top-level windows.
func TestWheelOverflowCascade(t *testing.T) {
	w := newTimingWheel()
	for i := 0; i < 40; i++ {
		w.push(event{at: 35*Second + Time(i)*2*Second, seq: uint64(i + 1)})
	}
	w.push(event{at: 1, seq: 1000})
	got := popAll(t, w)
	if len(got) != 41 {
		t.Fatalf("popped %d of 41", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("overflow drain out of order at %d", i)
		}
	}
}

// A warmed wheel schedules and fires without heap allocations — the bar the
// forward-path guards hold end to end.
func TestWheelZeroAllocSteadyState(t *testing.T) {
	e := New(1)
	r := &recorder{eng: e}
	for i := 0; i < 512; i++ {
		e.Schedule(Time(i)*300, r, uint64(i))
	}
	e.Run()
	r.args = r.args[:0]
	r.at = r.at[:0]
	allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleAfter(700, r, 1)    // level 1
		e.ScheduleAfter(90, r, 2)     // level 0
		e.ScheduleAfter(40_000, r, 3) // level 1
		e.RunUntil(e.Now() + 50_000)
		r.args = r.args[:0]
		r.at = r.at[:0]
	})
	if allocs != 0 {
		t.Fatalf("warmed wheel allocated %.2f per cycle, want 0", allocs)
	}
}
