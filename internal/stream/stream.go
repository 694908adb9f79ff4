// Package stream provides the typed telemetry stream primitive shared by
// the whole tree. The public framework package tppnet/app aliases Stream so
// applications keep importing it from there; internal layers (host control
// plane, fault plane) publish through this package directly, which avoids
// the import cycle internal/* → tppnet/app → tppnet → internal/*.
package stream

import (
	"sync"
	"sync/atomic"
)

// Stream is a typed telemetry stream: deterministic, synchronous fan-out
// from a publisher to its subscribers.
//
// Publish invokes every active subscriber in subscription order, on the
// publisher's goroutine — in a discrete-event simulation that keeps results
// reproducible, unlike channel-based delivery. A Stream's zero value is
// ready to use.
//
// Streams are safe for concurrent use: sharded simulations publish from one
// goroutine per shard, and a subscription's cancel may race a publish from
// another shard. Subscribe copies the subscriber list (copy-on-write under
// a mutex) while Publish reads it with a single atomic load, so the publish
// path stays lock-free and allocation-free. Cancellation is an atomic flag:
// a subscriber cancelled concurrently with a publish either observes that
// event or does not, but never a torn state. The subscriber callbacks
// themselves are invoked on the publishing goroutine — a callback shared
// across shards must do its own locking (see apps/microburst.Monitor for
// the pattern).
type Stream[T any] struct {
	mu   sync.Mutex // serializes Subscribe's copy-on-write
	subs atomic.Pointer[[]*subscription[T]]
}

type subscription[T any] struct {
	fn     func(T)
	active atomic.Bool
}

// Subscribe registers fn to observe every subsequent Publish and returns a
// cancel function. Cancel is idempotent and may be called in any order
// relative to other subscribers' cancels: a cancelled subscriber stops
// receiving immediately and the order of the remaining ones never changes.
// Its slot is dropped by the next Subscribe's copy, so subscribe/cancel
// cycles do not grow the list.
func (s *Stream[T]) Subscribe(fn func(T)) (cancel func()) {
	sub := &subscription[T]{fn: fn}
	sub.active.Store(true)
	s.mu.Lock()
	var next []*subscription[T]
	if cur := s.subs.Load(); cur != nil {
		next = make([]*subscription[T], 0, len(*cur)+1)
		for _, old := range *cur {
			if old.active.Load() {
				next = append(next, old)
			}
		}
	}
	next = append(next, sub)
	s.subs.Store(&next)
	s.mu.Unlock()
	return func() { sub.active.Store(false) }
}

// Publish delivers v to every active subscriber, in subscription order.
func (s *Stream[T]) Publish(v T) {
	subs := s.subs.Load()
	if subs == nil {
		return
	}
	for _, sub := range *subs {
		if sub.active.Load() {
			sub.fn(v)
		}
	}
}

// HasSubscribers reports whether any active subscriber remains; publishers
// on warm paths check it to skip building events nobody consumes.
func (s *Stream[T]) HasSubscribers() bool {
	subs := s.subs.Load()
	if subs == nil {
		return false
	}
	for _, sub := range *subs {
		if sub.active.Load() {
			return true
		}
	}
	return false
}

// Collect subscribes a slice accumulator to the stream and returns it: the
// one-liner for tests and batch consumers that want every event. The
// accumulator itself is not synchronized — use it where publishes are
// serialized (single-shard runs, or a publisher that holds its own lock).
func Collect[T any](s *Stream[T]) *[]T {
	out := &[]T{}
	s.Subscribe(func(v T) { *out = append(*out, v) })
	return out
}
