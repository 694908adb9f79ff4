package app_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"minions/internal/sim"
	"minions/tppnet"
	"minions/tppnet/app"
)

// TestStreamCancelRacesPublish hammers the documented race: one goroutine
// publishes continuously while others subscribe and immediately cancel.
// Run under -race (the CI race job does) this pins that cancellation is an
// atomic flag and the subscriber list a copy-on-write snapshot — no torn
// reads, and a cancelled subscriber stops receiving.
func TestStreamCancelRacesPublish(t *testing.T) {
	var s app.Stream[int]
	stop := make(chan struct{})
	var pubWG, wg sync.WaitGroup

	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Publish(1)
				runtime.Gosched() // keep single-CPU runs fair under -race
			}
		}
	}()

	const subscribers = 16
	var afterCancel atomic.Int64
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cancelled atomic.Bool
			cancel := s.Subscribe(func(int) {
				if cancelled.Load() {
					afterCancel.Add(1)
				}
			})
			for j := 0; j < 50; j++ {
				s.Publish(2)
			}
			// Order matters: flag first, then cancel. A delivery observed
			// after cancel returned would then always be counted.
			cancelled.Store(true)
			cancel()
		}()
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()

	// The callback may still be mid-flight while cancel runs (the flag is
	// set before cancel), so a tiny overlap window exists by design; what
	// must never happen is unbounded delivery after cancellation. Allow the
	// one-in-flight overlap per subscriber.
	if got := afterCancel.Load(); got > subscribers {
		t.Fatalf("deliveries after cancel: %d (max allowed %d)", got, subscribers)
	}
}

// TestStreamConcurrentSubscribePublish verifies Subscribe racing Publish
// never loses the subscriber list: after all subscriptions land, every
// subsequent publish reaches all of them.
func TestStreamConcurrentSubscribePublish(t *testing.T) {
	var s app.Stream[int]
	var wg sync.WaitGroup
	var got atomic.Int64
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Subscribe(func(int) { got.Add(1) })
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Publish(1) // races the subscribes; deliveries here are best-effort
		}()
	}
	wg.Wait()

	got.Store(0)
	s.Publish(7)
	if got.Load() != n {
		t.Fatalf("post-quiescence publish reached %d of %d subscribers", got.Load(), n)
	}
	if !s.HasSubscribers() {
		t.Fatal("HasSubscribers = false with live subscribers")
	}
}

// TestStreamPublishFromShards publishes into one shared Stream from the
// shard worker goroutines of a WithShards(2) simulation — the deployment
// shape the satellite task names. Each host runs a periodic publisher on
// its own shard engine; the shared subscriber guards its state with a
// mutex, per the Stream contract. Run under -race this pins that
// cross-shard Publish is safe.
func TestStreamPublishFromShards(t *testing.T) {
	net := tppnet.NewNetwork(tppnet.WithSeed(7), tppnet.WithShards(2))
	hosts, _, _ := net.Dumbbell(4, 100)
	if net.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", net.Shards())
	}

	var s app.Stream[uint64]
	var mu sync.Mutex
	perNode := map[uint64]int{}
	s.Subscribe(func(id uint64) {
		mu.Lock()
		perNode[id]++
		mu.Unlock()
	})

	const ticks = 20
	for _, h := range hosts {
		id := uint64(h.ID())
		eng := h.Engine()
		for i := 1; i <= ticks; i++ {
			eng.Schedule(tppnet.Time(i)*tppnet.Millisecond, sim.HandlerFunc(func() { s.Publish(id) }), 0)
		}
	}
	net.RunFor(25 * tppnet.Millisecond)

	for _, h := range hosts {
		if got := perNode[uint64(h.ID())]; got != ticks {
			t.Fatalf("host %d published %d events, want %d", h.ID(), got, ticks)
		}
	}
}

// TestStreamPublishZeroAlloc pins that the lock-free publish path performs
// no heap allocation — streams sit on simulation hot paths.
func TestStreamPublishZeroAlloc(t *testing.T) {
	var s app.Stream[int]
	var sum int
	s.Subscribe(func(v int) { sum += v })
	allocs := testing.AllocsPerRun(1000, func() { s.Publish(3) })
	if allocs != 0 {
		t.Fatalf("Publish allocates %.1f times per call, want 0", allocs)
	}
	_ = sum
}
