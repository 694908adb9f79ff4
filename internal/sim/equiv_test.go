package sim

// Scheduler-equivalence guards: the engine on its timing wheel must be
// observationally identical to the binary-heap reference engine
// (oracle_test.go). Random schedules — same-tick collisions,
// bucket-boundary times, far-future overflow timers, events scheduled from
// inside handlers, back-dated ScheduleKeyed stamps, the
// elided-event pattern (a future-dated ins, and a ReserveSeq number filed
// at a later now — into the open ready window or already past due), Stop
// mid-run, and inclusive/exclusive runTo segments — are replayed on both
// engines and the full firing traces compared. CI runs these under -race.

import (
	"fmt"
	"math/rand"
	"testing"
)

// traceRec is one fired event in a trace: the virtual time it fired at and
// the identity it carried.
type traceRec struct {
	at Time
	id uint64
}

// scriptEngine is what a script needs of an engine; Engine and refEngine
// both provide it.
type scriptEngine interface {
	Now() Time
	Rand() *rand.Rand
	Pending() int
	Stop()
	ReserveSeq() uint64
	Schedule(t Time, h Handler, arg uint64)
	ScheduleAfter(d Time, h Handler, arg uint64)
	ScheduleKeyed(t, ins Time, seq uint64, h Handler, arg uint64)
	Run() int
	RunUntil(deadline Time) int
	runTo(deadline Time, inclusive bool) int
}

// chaos drives one engine through a deterministic op script and records the
// firing trace. Handlers reschedule follow-up events using the engine's own
// RNG: if the two engines ever fire in different orders, their RNG streams
// diverge and the traces amplify the difference.
type chaos struct {
	eng   scriptEngine
	trace []traceRec
	depth int
	held  []heldKey
}

// heldKey is an event whose sequence number was reserved when it could have
// been scheduled, to be filed under that key later or never — the way a
// link holds its transmit-done event back until something waits on it.
type heldKey struct {
	at, ins Time
	seq, id uint64
}

func (c *chaos) Handle(id uint64) {
	c.trace = append(c.trace, traceRec{at: c.eng.Now(), id: id})
	if id&waiterBit != 0 && len(c.held) > 0 {
		c.file(len(c.held) - 1)
	}
	r := c.eng.Rand()
	// A third of events spawn follow-ups, bounded so runs terminate.
	if c.depth < 12_000 && r.Intn(3) == 0 {
		c.depth++
		c.schedule(r, id*31+7)
	}
}

// waiterBit marks an event that files the newest held event when it fires.
const waiterBit = 1 << 61

// file schedules held event i under the key reserved for it.
func (c *chaos) file(i int) {
	h := c.held[i]
	c.held = append(c.held[:i], c.held[i+1:]...)
	c.eng.ScheduleKeyed(h.at, h.ins, h.seq, c, h.id)
}

// schedule books one follow-up event with an adversarial delay mix.
func (c *chaos) schedule(r *rand.Rand, id uint64) {
	switch r.Intn(8) {
	case 6: // elide an intermediate event: hold it back, book what it would have scheduled
		now := c.eng.Now()
		mid := now + Time(r.Int63n(4096))
		c.held = append(c.held, heldKey{at: mid, ins: now, seq: c.eng.ReserveSeq(), id: id ^ 1<<62})
		c.eng.ScheduleKeyed(mid+Time(r.Int63n(4096)), mid, c.eng.ReserveSeq(), c, id) // ins in the future
		if r.Intn(2) == 0 {
			// A waiter turns up before mid and files the held event from
			// there — usually into the open ready window.
			c.eng.Schedule(now+Time(r.Int63n(int64(mid-now)+1)), c, id|waiterBit)
		}
	case 7: // file the oldest held event after all, long past due
		if len(c.held) == 0 {
			c.eng.Schedule(c.eng.Now(), c, id)
			break
		}
		c.file(0)
	case 0: // same tick
		c.eng.Schedule(c.eng.Now(), c, id)
	case 1: // sub-bucket future
		c.eng.ScheduleAfter(Time(r.Int63n(2048)), c, id)
	case 2: // level-0/1 window
		c.eng.ScheduleAfter(Time(r.Int63n(100_000)), c, id)
	case 3: // level-2/3 window
		c.eng.ScheduleAfter(Time(r.Int63n(int64(200*Millisecond))), c, id)
	case 4: // overflow band (beyond the wheel's ~34 s reach)
		c.eng.ScheduleAfter(35*Second+Time(r.Int63n(int64(10*Second))), c, id)
	default: // a leaf (no follow-ups) at a bucket-boundary-ish time
		at := (c.eng.Now() + Time(r.Int63n(int64(Millisecond)))) &^ 2047
		c.eng.Schedule(at, HandlerFunc(func() {
			c.trace = append(c.trace, traceRec{at: c.eng.Now(), id: id | 1<<63})
		}), 0)
	}
}

// runScript seeds an engine with rootN events, then alternates exclusive
// and inclusive run segments with barrier-style back-dated crossings in
// between, optionally stopping mid-run. It returns the full firing trace.
func runScript(e scriptEngine, seed int64, rootN int, stopAt int) []traceRec {
	c := &chaos{eng: e}
	r := rand.New(rand.NewSource(seed * 1013))
	for i := 0; i < rootN; i++ {
		c.schedule(r, uint64(i))
	}
	deadline := Time(0)
	for seg := 0; e.Pending() > 0 && seg < 400; seg++ {
		deadline += Time(r.Int63n(int64(40 * Millisecond)))
		if seg%2 == 0 {
			e.runTo(deadline, false)
			// Epoch barrier: drain "crossings" whose insertion stamps are in
			// this engine's past, landing at or after the exclusive deadline.
			for i := r.Intn(4); i > 0; i-- {
				at := deadline + Time(r.Int63n(2048))
				ins := deadline - Time(r.Int63n(int64(Millisecond)))
				e.ScheduleKeyed(at, ins, crossKey(0, seg, uint32(i)), c, uint64(seg)<<32|uint64(i))
			}
		} else {
			e.RunUntil(deadline)
		}
		if stopAt > 0 && len(c.trace) >= stopAt {
			e.Stop()
			break
		}
	}
	if stopAt == 0 {
		e.Run()
	}
	return c.trace
}

// diffTraces fails the test when the traces differ, pointing at the first
// divergent record.
func diffTraces(t *testing.T, label string, wheel, heap []traceRec) {
	t.Helper()
	n := len(wheel)
	if len(heap) < n {
		n = len(heap)
	}
	for i := 0; i < n; i++ {
		if wheel[i] != heap[i] {
			t.Fatalf("%s: traces diverge at event %d: wheel fired (t=%d id=%x), heap fired (t=%d id=%x)",
				label, i, wheel[i].at, wheel[i].id, heap[i].at, heap[i].id)
		}
	}
	if len(wheel) != len(heap) {
		t.Fatalf("%s: wheel fired %d events, heap %d", label, len(wheel), len(heap))
	}
}

// TestSchedulerEquivalence replays identical adversarial schedules on the
// engine and the heap oracle and requires identical firing sequences.
func TestSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		label := fmt.Sprintf("seed=%d", seed)
		w := runScript(New(seed), seed, 40, 0)
		h := runScript(newRefEngine(seed), seed, 40, 0)
		if len(w) < 40 {
			t.Fatalf("%s: only %d events fired — script not exercising the scheduler", label, len(w))
		}
		diffTraces(t, label, w, h)
	}
}

// TestSchedulerEquivalenceStop covers Stop mid-run: both engines must have
// fired the same prefix when they halt.
func TestSchedulerEquivalenceStop(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		label := fmt.Sprintf("seed=%d", seed)
		diffTraces(t, label,
			runScript(New(seed), seed, 30, 50),
			runScript(newRefEngine(seed), seed, 30, 50))
	}
}

// FuzzSchedulerEquivalence lets the fuzzer pick the script shape; the seed
// corpus covers each delay band. In normal `go test` runs (including the CI
// race job) the corpus plays back as unit tests.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(0))
	f.Add(int64(7), uint8(60), uint8(40))
	f.Add(int64(99), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rootN, stopAt uint8) {
		n := int(rootN)%64 + 1
		w := runScript(New(seed), seed, n, int(stopAt))
		h := runScript(newRefEngine(seed), seed, n, int(stopAt))
		diffTraces(t, fmt.Sprintf("seed=%d n=%d stop=%d", seed, n, stopAt), w, h)
	})
}
