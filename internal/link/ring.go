package link

// Ring is a reusable FIFO ring buffer of packets. Unlike the head-sliced
// `queue = queue[1:]` idiom it replaces, popping never abandons backing
// array slots: the vacated head is zeroed immediately (so drained packets
// are not pinned for the garbage collector) and the slot is reused on the
// next wraparound instead of forcing append to reallocate.
type Ring struct {
	buf  []*Packet
	head int // index of the oldest element
	n    int // number of elements
}

// ringMinCap sizes a ring's first allocation: enough for a busy link's
// steady-state queue without growth in the common case.
const ringMinCap = 16

// Len returns the number of queued packets.
func (r *Ring) Len() int { return r.n }

// Push appends p at the tail, growing the ring if it is full.
func (r *Ring) Push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = p
	r.n++
}

// slot returns the backing-array index of the k-th element from the head
// (0 <= k <= n). It wraps by compare, not %: Reserve makes lengths
// non-powers of two, so a modulo would be a real divide per packet.
func (r *Ring) slot(k int) int {
	i := r.head + k
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Pop removes and returns the head packet, zeroing its slot so the ring
// retains no reference. It returns nil when empty (or for a tombstone, see
// VoidTail).
func (r *Ring) Pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = r.slot(1)
	r.n--
	return p
}

// VoidTail replaces the newest element with a nil tombstone and returns it.
// The slot stays counted, so the FIFO positions of its neighbours hold and
// the matching Pop yields nil. The ring must be non-empty.
func (r *Ring) VoidTail() *Packet {
	i := r.slot(r.n - 1)
	p := r.buf[i]
	r.buf[i] = nil
	return p
}

// Peek returns the head packet without removing it, or nil when empty.
func (r *Ring) Peek() *Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// Reserve grows the backing array to at least n slots without changing the
// queued contents — used to pre-size queues to their drop-tail-bounded
// worst case so record-depth bursts never reallocate mid-measurement.
func (r *Ring) Reserve(n int) {
	if n <= len(r.buf) {
		return
	}
	buf := make([]*Packet, n)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[r.slot(i)]
	}
	r.buf = buf
	r.head = 0
}

// grow doubles the ring's capacity, unwrapping the elements into the new
// backing array.
func (r *Ring) grow() {
	newCap := 2 * len(r.buf)
	if newCap < ringMinCap {
		newCap = ringMinCap
	}
	buf := make([]*Packet, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[r.slot(i)]
	}
	r.buf = buf
	r.head = 0
}
