package link

import (
	"math/rand"
	"testing"

	"minions/internal/sim"
)

// Property: under any interleaving of pushes and pops — including many
// wraparounds of the backing array — the ring dequeues exactly the FIFO
// order of a reference slice queue.
func TestRingFIFOUnderWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var r Ring
		var ref []*Packet
		nextID := uint64(0)
		if trial%2 == 1 {
			// Reserved lengths are not powers of two: the wrap must not
			// depend on one.
			r.Reserve(3 + 2*trial)
		}
		for op := 0; op < 2000; op++ {
			if len(ref) == 0 || rng.Intn(3) != 0 { // bias toward pushes
				nextID++
				p := &Packet{ID: nextID}
				r.Push(p)
				ref = append(ref, p)
			} else {
				want := ref[0]
				ref = ref[1:]
				got := r.Pop()
				if got != want {
					t.Fatalf("trial %d op %d: pop = %v, want ID %d", trial, op, got, want.ID)
				}
			}
			if r.Len() != len(ref) {
				t.Fatalf("trial %d op %d: len = %d, want %d", trial, op, r.Len(), len(ref))
			}
		}
		// Drain and verify the tail.
		for _, want := range ref {
			if got := r.Pop(); got != want {
				t.Fatalf("trial %d drain: pop ID %v, want %d", trial, got, want.ID)
			}
		}
		if r.Pop() != nil {
			t.Fatal("pop from empty ring should be nil")
		}
	}
}

func TestRingPeek(t *testing.T) {
	var r Ring
	if r.Peek() != nil {
		t.Fatal("peek on empty ring should be nil")
	}
	a, b := &Packet{ID: 1}, &Packet{ID: 2}
	r.Push(a)
	r.Push(b)
	if r.Peek() != a {
		t.Fatal("peek should return the head without removing it")
	}
	if r.Len() != 2 {
		t.Fatalf("peek mutated len: %d", r.Len())
	}
	if r.Pop() != a || r.Peek() != b {
		t.Fatal("pop/peek order wrong")
	}
}

// VoidTail tombstones the newest element in place: the slot stays counted,
// the elements ahead of it keep their positions, and its Pop yields nil.
func TestRingVoidTail(t *testing.T) {
	var r Ring
	r.Reserve(3)
	a, b, c := &Packet{ID: 1}, &Packet{ID: 2}, &Packet{ID: 3}
	r.Push(a)
	r.Push(b)
	if r.Pop() != a {
		t.Fatal("pop order wrong")
	}
	r.Push(c) // tail slot is now the last of the backing array
	if got := r.VoidTail(); got != c || r.Len() != 2 {
		t.Fatalf("VoidTail = %v (len %d), want packet 3 (len 2)", got, r.Len())
	}
	r.Push(a) // wraps to slot 0
	if got := r.VoidTail(); got != a {
		t.Fatalf("VoidTail across the wrap = %v, want packet 1", got)
	}
	if r.Pop() != b || r.Pop() != nil || r.Pop() != nil || r.Len() != 0 {
		t.Fatal("tombstones must pop as nil, in position")
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Fatalf("slot %d still pins packet %d", i, slot.ID)
		}
	}
}

// Regression for the head-sliced queue the ring replaced: a drained queue
// must not retain *Packet references in its backing array, or every packet
// that ever transited the link stays reachable until the slot is happened to
// be overwritten.
func TestDrainedQueueDoesNotPinPackets(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := New(eng, Config{RateBps: 1_000_000, QueueBytes: 1 << 20}, dst, 0)
	for i := 0; i < 100; i++ {
		l.Enqueue(&Packet{ID: uint64(i), Size: 1000})
	}
	eng.Run()
	if len(dst.pkts) != 100 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	for i, slot := range l.queue.buf {
		if slot != nil {
			t.Fatalf("drained queue pins packet %d in slot %d", slot.ID, i)
		}
	}
	for i, slot := range l.inflight.buf {
		if slot != nil {
			t.Fatalf("drained inflight ring pins packet %d in slot %d", slot.ID, i)
		}
	}
}

// Steady-state forwarding through a warmed link allocates nothing: ring
// slots, resident events, and the engine heap are all reused.
func TestLinkForwardZeroAlloc(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	dst.pkts = make([]*Packet, 0, 4096)
	dst.at = make([]sim.Time, 0, 4096)
	dst.port = make([]int, 0, 4096)
	l := New(eng, Config{RateBps: 1_000_000_000, Delay: sim.Microsecond}, dst, 0)
	p := &Packet{ID: 1, Size: 1000}
	// Warm rings and heap.
	for i := 0; i < 32; i++ {
		l.Enqueue(p)
		eng.Run()
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.Enqueue(p)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("link forward allocated %.1f per packet, want 0", allocs)
	}
}
