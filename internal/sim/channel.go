package sim

// Lock-free shard-crossing channels for the conservative PDES engine.
//
// Each directed shard-crossing link registers one Channel. The source shard
// parks crossings into the channel's single-producer/single-consumer mailbox
// as it simulates; the destination shard drains the mailbox incrementally,
// whenever its per-channel clocks permit. Because every crossing carries a
// deterministic tie-break key (crossKey below), the drain instant is
// unobservable: drained events land in the destination scheduler in exactly
// the order a single-threaded barrier merge produces (the epoch oracle in
// oracle_test.go is one).

import "sync/atomic"

// Crossing tie-break keys. A key occupies the event seq field with the high
// bit set, so at an equal (firing time, insertion time) every local event —
// whose seq is a small counter — precedes every crossing, and crossings
// order among themselves by (source shard, channel, FIFO index): exactly
// the (src, port, idx) order of the old deterministic barrier merge.
const (
	crossKeyBit    = uint64(1) << 63
	crossSrcShift  = 50 // 13 bits of source shard
	crossChanShift = 32 // 18 bits of channel index
	maxKeyShards   = 1 << (63 - crossSrcShift)
	maxKeyChannels = 1 << (crossSrcShift - crossChanShift)
)

// crossKey builds a crossing's deterministic event key. fifo is the
// channel's running FIFO counter; its 32 bits only disambiguate crossings
// of one channel at one (at, ins) instant, so wrap-around is harmless.
func crossKey(src, ch int, fifo uint32) uint64 {
	return crossKeyBit | uint64(src)<<crossSrcShift | uint64(ch)<<crossChanShift | uint64(fifo)
}

// spscSegCap is the entry capacity of one mailbox segment. Segments recycle
// through a single spare slot, so a steady-state channel ping-pongs between
// at most two segments and pushes allocate nothing.
const spscSegCap = 64

// spscSeg is one fixed-capacity segment of an SPSC queue.
type spscSeg[T any] struct {
	buf  [spscSegCap]T
	next atomic.Pointer[spscSeg[T]]
}

// SPSC is an unbounded lock-free single-producer/single-consumer queue: a
// linked list of fixed-size segments with a published-count atomic as the
// only producer/consumer synchronization. The producer side (Reserve,
// Commit) and the consumer side (Avail, Front, Advance) must each be used
// from one goroutine at a time; ShardGroup's run protocol guarantees the
// roles never overlap. Reserve hands out the slot in place so value-typed
// entries (and any buffers they retain) are reused when segments recycle.
type SPSC[T any] struct {
	pushed atomic.Uint64 // entries published, written by the producer
	_      [56]byte      // keep producer/consumer fields off one cache line

	// Producer-owned.
	head    *spscSeg[T]
	headPos int

	// Consumer-owned.
	tail    *spscSeg[T]
	tailPos int
	popped  uint64

	// One recycled segment, handed from consumer back to producer.
	spare atomic.Pointer[spscSeg[T]]
}

// Init readies the queue. Must be called (single-threaded) before use.
func (q *SPSC[T]) Init() {
	seg := &spscSeg[T]{}
	q.head, q.tail = seg, seg
}

// Reserve returns a pointer to the next slot to fill. The producer writes
// the entry in place (reusing any buffers the recycled slot retained) and
// then publishes it with Commit.
func (q *SPSC[T]) Reserve() *T {
	if q.headPos == spscSegCap {
		seg := q.spare.Swap(nil)
		if seg == nil {
			seg = &spscSeg[T]{}
		} else {
			seg.next.Store(nil)
		}
		q.head.next.Store(seg)
		q.head = seg
		q.headPos = 0
	}
	return &q.head.buf[q.headPos]
}

// Commit publishes the slot returned by the last Reserve.
func (q *SPSC[T]) Commit() {
	q.headPos++
	q.pushed.Add(1)
}

// Push is Reserve+Commit for entries without reusable innards.
func (q *SPSC[T]) Push(v T) {
	*q.Reserve() = v
	q.Commit()
}

// Avail returns the number of published entries not yet consumed.
func (q *SPSC[T]) Avail() int { return int(q.pushed.Load() - q.popped) }

// Front returns the oldest unconsumed entry in place; the pointer is valid
// until Advance. Only call with Avail() > 0.
func (q *SPSC[T]) Front() *T {
	if q.tailPos == spscSegCap {
		q.advanceSeg()
	}
	return &q.tail.buf[q.tailPos]
}

// Advance consumes the entry returned by Front. The slot (including any
// buffers the consumer left in it) recycles with its segment.
func (q *SPSC[T]) Advance() {
	q.tailPos++
	q.popped++
}

// advanceSeg moves the consumer to the next segment and parks the drained
// one as the producer's spare.
func (q *SPSC[T]) advanceSeg() {
	next := q.tail.next.Load()
	old := q.tail
	q.tail = next
	q.tailPos = 0
	q.spare.Store(old)
}

// crossMsg is one parked crossing: its delivery stamp, deterministic event
// key, and the handler to fire in the destination shard.
type crossMsg struct {
	at, ins Time
	key     uint64
	h       Handler
	arg     uint64
}

// Channel is one directed shard-crossing channel — in the network
// substrate, a link whose transmitter and receiver live in different
// shards. The source shard parks crossings with Send; the group (or the
// destination shard's worker) drains them into the destination engine.
// The channel's propagation delay is its lookahead contribution: a shard
// can safely advance to min over incoming channels of (source clock +
// delay) without ever receiving a crossing from its past.
type Channel struct {
	st    *groupState
	idx   int
	src   int
	dst   int
	delay Time

	// fifo is the producer-side FIFO counter feeding crossKey.
	fifo uint32

	q SPSC[crossMsg]
}

// SrcShard returns the crossing direction's source shard.
func (c *Channel) SrcShard() int { return c.src }

// DestShard returns the crossing direction's destination shard.
func (c *Channel) DestShard() int { return c.dst }

// Delay returns the channel's propagation delay (its lookahead).
func (c *Channel) Delay() Time { return c.delay }

// Send parks one crossing emitted at virtual time now in the source shard:
// h.Handle(arg) will fire in the destination shard at now + Delay. Call
// only from the source shard (it is the mailbox's single producer).
func (c *Channel) Send(now Time, h Handler, arg uint64) {
	m := c.q.Reserve()
	*m = crossMsg{at: now + c.delay, ins: now, key: crossKey(c.src, c.idx, c.fifo), h: h, arg: arg}
	c.fifo++
	c.q.Commit()
}

// Pending returns the number of parked crossings not yet drained into the
// destination engine. Safe only from the consumer side (the destination
// shard's worker, or the coordinator while all workers are parked).
func (c *Channel) Pending() int { return c.q.Avail() }

// drainInto schedules every currently visible crossing into the
// destination engine and returns the count. Consumer-side only. The order
// entries are drained in is irrelevant — their keys reproduce the
// deterministic merge order at firing time — so a drain can happen at any
// instant the sync algorithm finds convenient.
func (c *Channel) drainInto(e *Engine) int {
	n := c.q.Avail()
	for i := 0; i < n; i++ {
		m := c.q.Front()
		e.ScheduleKeyed(m.at, m.ins, m.key, m.h, m.arg)
		c.q.Advance()
	}
	if n > 0 {
		c.st.crossings[c.dst].v += uint64(n)
	}
	return n
}

// earliestPending returns the delivery time of the oldest undrained
// crossing. Consumer-side only (used by the full-drain Run loop while all
// workers are parked).
func (c *Channel) earliestPending() (Time, bool) {
	if c.q.Avail() == 0 {
		return 0, false
	}
	return c.q.Front().at, true
}

// SyncStats are the group's synchronization counters.
//
// Epochs and Crossings are deterministic for a given (seed, shard count):
// Epochs counts group-wide synchronization points (one per RunUntil
// dispatch-join — the asynchronous engine has no barriers inside a run),
// and Crossings counts shard-crossing deliveries drained. Drains (mailbox
// sweeps that moved at least one crossing) and MaxIdleParks (the largest
// per-shard count of idle waits, where a shard had nothing to do until an
// upstream clock advanced) depend on goroutine scheduling when shards run
// in parallel; with Parallel=false they are deterministic too.
type SyncStats struct {
	Epochs       uint64
	Crossings    uint64
	Drains       uint64
	MaxIdleParks uint64
}

// padCounter is a cache-line-padded per-shard counter; each is written by
// exactly one goroutine at a time (the shard's worker, or the coordinator
// between runs).
type padCounter struct {
	v uint64
	_ [56]byte
}

// shardClock is a shard's published virtual clock, padded to its own cache
// line. Workers publish after every quantum; downstream shards read it to
// compute their per-channel horizon. The atomic establishes the
// happens-before edge that makes mailbox contents pushed before the
// publish visible to a drain that observed the published value.
type shardClock struct {
	v atomic.Int64
	_ [56]byte
}
