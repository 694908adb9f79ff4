package link

import "minions/internal/core"

// Pool is a Packet free list. In steady state the simulator forwards
// millions of packets whose lifetimes are short and strictly nested inside
// the run loop, so recycling them (together with their TPP section buffers)
// removes the dominant allocation source of the hot path — the lesson
// packet-rate tools like MoonGen codify: per-packet allocation cost decides
// throughput.
//
// # Ownership rules
//
// A packet obtained from Get is owned by whoever holds the pointer; exactly
// one owner may return it with Put (or the convenience method
// Packet.Release), and only once its journey has ended:
//
//   - Transports and traffic generators draw packets from the pool (via
//     host.NewPacket on a pool-wired host) and hand ownership to the network
//     on Send.
//   - The final consumer returns the packet: transport sinks (Sink, TCPSink,
//     and TCP flows consuming ACKs) Release after their callbacks run, and
//     the host shim Releases standalone TPP echoes after dispatching their
//     views, as well as deliveries no handler claimed.
//   - Drops are terminal: every drop path (queue tail, down links, fault
//     losses, halted switches) publishes the packet on its DropEvents
//     stream (Link.DropEvents, device.Switch.DropEvents) and then returns
//     it to the pool. Subscribers that need the packet beyond the callback
//     (tracing) must Clone it; Switch.DropNotifies (§2.6 collectors)
//     already carries a clone. Host.Transmits subscribers run just before
//     the NIC takes ownership and copy what they keep. This makes
//     Outstanding()==0 after a drained run an enforceable leak invariant,
//     which the fault plane's chaos tests rely on.
//   - Receive callbacks that retain a packet beyond the callback must not
//     install a releasing sink for the same traffic; retaining and releasing
//     the same packet corrupts the free list.
//
// A released packet's TPP section buffer is retained and reused by the next
// SectionBuf call, so executed TPP views passed to aggregators and executor
// callbacks are valid only during the callback when pooled traffic is in
// flight; consumers copy what they keep (HopViews/StackView/Words already
// copy).
//
// Put guards against double-free (panic) and Enqueue guards against sending
// a freed packet (panic), turning use-after-Put bugs into immediate,
// deterministic failures instead of silent cross-flow corruption.
type Pool struct {
	free []*Packet

	// Counters for observability and tests.
	gets uint64 // total Get calls
	puts uint64 // total Put calls
	news uint64 // Gets that had to allocate a fresh Packet
}

// NewPool creates an empty free list.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet owned by the caller. The packet's TPP section
// buffer capacity (if it was recycled) is retained for SectionBuf reuse.
func (pl *Pool) Get() *Packet {
	pl.gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.inPool = false
		return p
	}
	pl.news++
	return &Packet{pool: pl}
}

// Put returns a packet to the free list. The packet must have come from this
// pool's Get and must not be referenced anywhere else. Put panics on a
// double free.
func (pl *Pool) Put(p *Packet) {
	if p.inPool {
		panic("link: Pool.Put called twice on the same packet")
	}
	if p.pool != pl {
		panic("link: Pool.Put on a packet from a different pool")
	}
	pl.puts++
	// Scrub the packet now (not at Get) so stale references — a retained
	// aggregator view, a forgotten sink pointer — observe zeroed fields
	// rather than plausible old data.
	buf := p.tppBuf
	*p = Packet{pool: pl, tppBuf: buf, inPool: true}
	pl.free = append(pl.free, p)
}

// Reserve grows the free list until it holds at least n idle packets, so a
// traffic source whose worst-case in-flight burst is known up front (the
// workload compiler's specs) never allocates on the hot path — not even on
// the first record-depth burst. Reserved packets are ordinary pool packets;
// gets/puts (and therefore Outstanding) are untouched, so the leak
// invariant and every fingerprint are unaffected.
func (pl *Pool) Reserve(n int) {
	for len(pl.free) < n {
		pl.free = append(pl.free, &Packet{pool: pl, inPool: true})
	}
}

// WarmBuffers pre-sizes the TPP section buffer of every idle packet to n
// bytes. Reserved packets are born buffer-less; without this, the first
// record-depth burst that digs into them pays one SectionBuf allocation per
// packet inside the measured window. Call after Reserve, with the encoded
// length of the largest TPP the run attaches.
func (pl *Pool) WarmBuffers(n int) {
	for _, p := range pl.free {
		if cap(p.tppBuf) < n {
			p.tppBuf = make([]byte, n)
		}
	}
}

// Stats returns (gets, puts, news): total draws, total returns, and draws
// that had to allocate because the free list was empty.
func (pl *Pool) Stats() (gets, puts, news uint64) { return pl.gets, pl.puts, pl.news }

// FreeLen returns the current free-list length.
func (pl *Pool) FreeLen() int { return len(pl.free) }

// Outstanding returns gets − puts: the number of pool packets currently
// owned outside the pool. After a fully drained run it must be zero — the
// leak invariant the chaos tests assert after every fault.
func (pl *Pool) Outstanding() int64 { return int64(pl.gets) - int64(pl.puts) }

// Release returns the packet to its owning pool, if any. It is a no-op for
// packets that were constructed directly rather than drawn from a pool, so
// terminal consumers can call it unconditionally.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.Put(p)
	}
}

// Pooled reports whether the packet is managed by a pool.
func (p *Packet) Pooled() bool { return p.pool != nil }

// SectionBuf returns a TPP section of n bytes backed by the packet's
// retained buffer, growing it if needed. The caller fills it (typically by
// copying an encoded template) and assigns it to p.TPP. Reusing the buffer
// makes TPP attachment allocation-free once a pooled packet has carried a
// program of this size before.
func (p *Packet) SectionBuf(n int) core.Section {
	if cap(p.tppBuf) < n {
		p.tppBuf = make([]byte, n)
	}
	p.tppBuf = p.tppBuf[:n]
	return core.Section(p.tppBuf)
}

// Clone returns a detached deep-enough copy of the packet for observers that
// outlive the original (drop collectors, tracing). The clone is GC-managed —
// never pool-owned — and shares no TPP buffer with the original.
func (p *Packet) Clone() *Packet {
	clone := *p
	clone.pool = nil
	clone.inPool = false
	clone.tppBuf = nil
	if p.TPP != nil {
		clone.TPP = p.TPP.Clone()
	}
	return &clone
}
