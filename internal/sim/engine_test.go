package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30, HandlerFunc(func() { got = append(got, 3) }), 0)
	e.Schedule(10, HandlerFunc(func() { got = append(got, 1) }), 0)
	e.Schedule(20, HandlerFunc(func() { got = append(got, 2) }), 0)
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order: %v", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %d", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, HandlerFunc(func() { got = append(got, i) }), 0)
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events not FIFO: %v", got)
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New(1)
	var times []Time
	e.ScheduleAfter(10, HandlerFunc(func() {
		times = append(times, e.Now())
		e.ScheduleAfter(5, HandlerFunc(func() { times = append(times, e.Now()) }), 0)
	}), 0)
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times: %v", times)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New(1)
	fired := Time(-1)
	e.ScheduleAfter(100, HandlerFunc(func() {
		e.Schedule(5, HandlerFunc(func() { fired = e.Now() }), 0) // in the past: clamp to now
	}), 0)
	e.Run()
	if fired != 100 {
		t.Errorf("past event fired at %d", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i)*10, HandlerFunc(func() { count++ }), 0)
	}
	n := e.RunUntil(50)
	if n != 5 || count != 5 {
		t.Fatalf("processed %d events, count %d", n, count)
	}
	if e.Now() != 50 {
		t.Errorf("Now = %d", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Errorf("count = %d", count)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := New(1)
	count := 0
	e.Schedule(1, HandlerFunc(func() { count++; e.Stop() }), 0)
	e.Schedule(2, HandlerFunc(func() { count++ }), 0)
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion wrong")
	}
	if (500 * Millisecond).Seconds() != 0.5 {
		t.Error("Seconds conversion wrong")
	}
}

// Property: any set of scheduled events fires in nondecreasing time order.
func TestOrderingQuick(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := New(1)
		var fired []Time
		for _, off := range offsets {
			e.Schedule(Time(off), HandlerFunc(func() { fired = append(fired, e.Now()) }), 0)
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// recorder is a test Handler logging (now, arg) pairs.
type recorder struct {
	eng  *Engine
	args []uint64
	at   []Time
}

func (r *recorder) Handle(arg uint64) {
	r.args = append(r.args, arg)
	r.at = append(r.at, r.eng.Now())
}

func TestScheduleHandler(t *testing.T) {
	e := New(1)
	r := &recorder{eng: e}
	e.Schedule(30, r, 3)
	e.Schedule(10, r, 1)
	e.ScheduleAfter(20, r, 2)
	e.Run()
	if len(r.args) != 3 || r.args[0] != 1 || r.args[1] != 2 || r.args[2] != 3 {
		t.Fatalf("args: %v", r.args)
	}
	if r.at[2] != 30 {
		t.Errorf("last at %d", r.at[2])
	}
}

// intAppender appends its arg to a shared order log.
type intAppender struct{ out *[]int }

func (a *intAppender) Handle(arg uint64) { *a.out = append(*a.out, int(arg)) }

// HandlerFunc closures and struct handlers at the same instant interleave in
// scheduling order.
func TestHandlerClosureInterleaving(t *testing.T) {
	e := New(1)
	var got []int
	h := &intAppender{out: &got}
	e.Schedule(5, HandlerFunc(func() { got = append(got, 0) }), 0)
	e.Schedule(5, h, 1)
	e.Schedule(5, HandlerFunc(func() { got = append(got, 2) }), 0)
	e.Schedule(5, h, 3)
	e.Run()
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Fatalf("interleaving order: %v", got)
	}
}

// Property: scheduling from inside a handler clamps to now too.
func TestScheduleClampsPast(t *testing.T) {
	e := New(1)
	r := &recorder{eng: e}
	e.Schedule(100, HandlerFunc(func() { e.Schedule(5, r, 9) }), 0)
	e.Run()
	if len(r.at) != 1 || r.at[0] != 100 {
		t.Fatalf("clamped firing at %v", r.at)
	}
}

// Scheduling a pointer Handler into a warmed engine allocates nothing.
func TestScheduleZeroAlloc(t *testing.T) {
	e := New(1)
	r := &recorder{eng: e}
	// Warm the wheel's buckets and the recorder's slices.
	for i := 0; i < 128; i++ {
		e.Schedule(Time(i), r, uint64(i))
	}
	e.Run()
	r.args = r.args[:0]
	r.at = r.at[:0]
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleAfter(1, r, 1)
		e.ScheduleAfter(2, r, 2)
		e.RunUntil(e.Now() + 2)
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Run allocated %.1f per run, want 0", allocs)
	}
}

// BenchmarkEngineScheduleHandler measures the raw schedule+fire cycle.
func BenchmarkEngineScheduleHandler(b *testing.B) {
	e := New(1)
	r := &recorder{eng: e}
	r.args = make([]uint64, 0, 2048)
	r.at = make([]Time, 0, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(Time(i%100), r, uint64(i))
		if e.Pending() > 1024 {
			r.args = r.args[:0]
			r.at = r.at[:0]
			e.RunUntil(e.Now() + 50)
		}
	}
}

// BenchmarkEngineHotMix approximates the simulator's scheduling mix — short
// transmit/delivery delays with a long-tail of pacing timers over a standing
// event population.
func BenchmarkEngineHotMix(b *testing.B) {
	e := New(1)
	r := &recorder{eng: e}
	r.args = make([]uint64, 0, 4096)
	r.at = make([]Time, 0, 4096)
	// Standing population: pacing-style timers spread over 1 ms.
	for i := 0; i < 512; i++ {
		e.Schedule(Time(i)*1953, r, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(11_200, r, 1) // transmit done at 1 Gb/s
		e.ScheduleAfter(5_000, r, 2)  // propagation delay
		e.ScheduleAfter(560_000, r, 3)
		e.RunUntil(e.Now() + 12_000)
		if len(r.args) > 2048 {
			r.args = r.args[:0]
			r.at = r.at[:0]
		}
	}
}
