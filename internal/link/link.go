// Package link models network links and their output queues: finite-rate
// serialization, propagation delay, drop-tail queueing, and the per-port
// statistics blocks of the paper's appendix (Table 6) — transmit/receive/
// drop counters and the link utilization registers that switches update
// every millisecond (§2.2: "The network updates link utilization counters
// every millisecond").
//
// The forwarding hot path is allocation-free in steady state: output queues
// are reusable ring buffers, serialization and delivery are resident typed
// events re-armed per packet (no closures), and packets themselves recycle
// through a Pool — see Pool's documentation for the ownership rules of who
// returns a packet and when.
//
// Watching a link is a stream subscription: DropEvents publishes every
// discarded packet with its reason, subscribers run in subscription order
// and cancel in any order, and — because a drop is terminal — must Clone a
// packet they keep past the callback.
//
// One event per idle-link hop. A FIFO link knows when a packet departs the
// instant it starts serializing (lineFree = now + size/rate + stall), so
// startTransmit books the delivery right away and the end-of-serialization
// (txDone) event exists only when something must happen at that instant: a
// packet is waiting in the queue, the link went down mid-serialization, or
// the link is a shard Boundary (which parks at txDone). The events that do
// run carry the tie-break keys a txDone-per-packet link would have produced
// — see startTransmit for the key rule — and startTransmit itself (FilterTx,
// utilization roll, counters, queue occupancy) runs at the same virtual
// instants, so only the scheduler can tell the difference. One tie is
// resolved by rule rather than by event order: an Enqueue or SetDown at
// exactly lineFree, with no txDone armed, finds the line free and the
// packet departed, as if the elided txDone had fired first in that instant.
package link

import (
	"fmt"

	"minions/internal/core"
	"minions/internal/sim"
	"minions/internal/stream"
)

// NodeID is a network-wide node (host or switch) identifier.
type NodeID uint32

// FlowKey identifies a transport flow.
type FlowKey struct {
	Src, Dst         NodeID
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders the key for diagnostics.
func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%d->%d:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Hash is a cheap deterministic hash of the flow key plus a path tag, used
// by switches for multipath selection ("selects an output port by hashing
// on header fields (e.g., the VLAN tag)").
func (k FlowKey) Hash(tag uint16) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(uint32(k.Src))
	mix(uint32(k.Dst))
	mix(uint32(k.SrcPort)<<16 | uint32(k.DstPort))
	mix(uint32(k.Proto))
	mix(uint32(tag))
	// Murmur-style finalizer: without it, high-bit differences (e.g. the
	// source port) never reach the low bits ECMP selects on.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// TagHash hashes a path tag alone. Multipath groups use it for tagged
// packets so that a given tag selects the same bucket for every flow —
// "end-hosts select network paths simply by changing the VLAN ID" (§2.4):
// probes and data with equal tags must take equal paths.
func TagHash(tag uint16) uint32 {
	h := uint32(tag) * 2654435761
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	return h
}

// Transport protocol numbers used by the simulator.
const (
	ProtoUDP uint8 = 17
	ProtoTCP uint8 = 6
)

// TCP-like header flag bits for Packet.TFlags.
const (
	TFlagSYN uint8 = 1 << iota
	TFlagACK
	TFlagFIN
)

// Packet is the simulator's in-flight packet. Wire headers other than the
// TPP are kept as struct fields (the simulation does not re-serialize them
// per hop); the TPP section is real wire bytes executed in place, exactly as
// a hardware TCPU would.
type Packet struct {
	ID   uint64
	Flow FlowKey
	Size int // bytes on the wire, including all headers

	// TPP is the attached tiny packet program, nil for plain traffic.
	TPP core.Section
	// Standalone marks a probe packet that exists only to carry its TPP
	// (the UDP dport 0x6666 encapsulation) rather than piggybacking.
	Standalone bool

	PathTag uint16 // multipath selector (the paper's VLAN-tag trick)
	TTL     uint8

	// Transport fields for the simulator's TCP-like and UDP transports.
	Seq, Ack uint32
	TFlags   uint8

	// Payload carries an app-level message by reference (simulation idiom).
	Payload any

	Hops   int      // switch hops traversed so far
	SentAt sim.Time // set by the sending host

	// Free-list bookkeeping (see Pool). pool is nil for packets constructed
	// directly; tppBuf is the retained TPP section buffer SectionBuf reuses.
	pool   *Pool
	inPool bool
	tppBuf []byte
}

// Receiver consumes packets delivered by a link.
type Receiver interface {
	Receive(p *Packet, port int)
}

// Stats is a transmit/receive/drop statistics block (appendix Table 6).
type Stats struct {
	TxBytes, TxPackets     uint64
	RxBytes, RxPackets     uint64
	DropBytes, DropPackets uint64
}

// Config describes one unidirectional link.
type Config struct {
	RateBps    int64    // link capacity, bits per second
	Delay      sim.Time // propagation delay
	QueueBytes int      // output queue capacity in bytes (0 = default 150 kB)
}

// utilWindow is the utilization update interval (§2.2: "The network updates
// link utilization counters every millisecond").
const utilWindow = sim.Millisecond

// DefaultQueueBytes is roughly 100 x 1500B packets, a typical shallow
// datacenter switch queue per port.
const DefaultQueueBytes = 150_000

// DropReason says why a link discarded a packet. Switches map these into
// their own richer device.DropReason space when re-publishing queue drops.
type DropReason uint8

const (
	// DropQueueFull: drop-tail at the output queue.
	DropQueueFull DropReason = iota
	// DropLinkDown: the link is administratively or fault-plane down.
	DropLinkDown
	// DropFaultLoss: the armed fault plane discarded the packet (random
	// loss, burst loss) at the transmit path.
	DropFaultLoss
)

// String renders the reason.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropLinkDown:
		return "link-down"
	case DropFaultLoss:
		return "fault-loss"
	}
	return fmt.Sprintf("drop(%d)", uint8(r))
}

// TxFault is the fault plane's hook on a link's transmit path. FilterTx is
// consulted once per packet as it is popped for serialization: returning
// drop discards the packet (reason DropFaultLoss); otherwise stall is added
// to the packet's serialization time (delay jitter). Jitter must be a
// serialization stall — not a per-packet propagation delta — because the
// link's inflight ring relies on delivery order equaling serialization
// order. FilterTx may also mutate the packet in place (TPP corruption).
type TxFault interface {
	FilterTx(p *Packet) (drop bool, stall sim.Time)
}

// Link is a unidirectional link with an output (egress) queue at its sender.
// Enqueue either queues the packet for serialization or drops it (drop-tail).
type Link struct {
	eng *sim.Engine
	cfg Config

	dst     Receiver
	dstPort int

	// queue is the drop-tail output queue; inflight holds packets whose
	// delivery is booked: the one serializing (the tail, until lineFree) and
	// those propagating. Both are reusable rings: delivery order equals
	// serialization order because propagation delay is constant per link, so
	// the deliver event just pops the inflight head.
	queue      Ring
	inflight   Ring
	queueBytes int
	down       bool // fault plane: link refuses and drops traffic

	// The line is busy while txArmed or now < lineFree. txStart and txSeq
	// are the current serialization's start instant and the sequence number
	// reserved there: the key its txDone event is filed under if it is ever
	// armed (armTxDone). txPkt is the serializing packet of a Boundary link,
	// which parks at txDone instead of booking a delivery up front.
	lineFree sim.Time
	txStart  sim.Time
	txSeq    uint64
	txArmed  bool
	txPkt    *Packet

	// fault, when non-nil, is the armed fault plane's transmit-path hook.
	// The nil check is the only hot-path cost when no plan is armed.
	fault TxFault

	stats Stats

	// boundary, when set, marks this link as crossing between topology
	// shards: transmission-complete packets park in the boundary mailbox
	// for the destination shard to drain instead of scheduling a local
	// delivery.
	boundary *Boundary

	// Lazy fixed-window utilization estimators: rolled on access. winBytes
	// counts transmitted bytes (TX utilization, capped at capacity);
	// arrBytes counts offered bytes at enqueue, accepted or not — the
	// arrival rate y(t) RCP's control law needs, which may exceed capacity.
	winStart sim.Time
	winBytes int64
	arrBytes int64
	utilPm   uint32 // last completed window, in permille of capacity
	arrPm    uint32 // last completed window's offered load, permille

	drops stream.Stream[DropEvent]
}

// DropEvent is one packet a link discarded, as published on DropEvents.
type DropEvent struct {
	Packet *Packet
	Reason DropReason
}

// New creates a link feeding packets to dst's port dstPort.
func New(eng *sim.Engine, cfg Config, dst Receiver, dstPort int) *Link {
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	return &Link{eng: eng, cfg: cfg, dst: dst, dstPort: dstPort}
}

// RateBps returns the configured capacity in bits/second.
func (l *Link) RateBps() int64 { return l.cfg.RateBps }

// RateMbps returns the configured capacity in Mb/s.
func (l *Link) RateMbps() uint32 { return uint32(l.cfg.RateBps / 1_000_000) }

// Stats returns a snapshot of the statistics block.
func (l *Link) Stats() Stats { return l.stats }

// Engine returns the engine this link schedules on. Fault injectors use it
// to arm per-target events on the owning shard's engine.
func (l *Link) Engine() *sim.Engine { return l.eng }

// IsDown reports whether the link is down.
func (l *Link) IsDown() bool { return l.down }

// SetDown moves the link between up and down. Taking a link down drains
// its output queue (each packet dropped with DropLinkDown); a packet
// mid-serialization is dropped when its serialization completes, while
// packets already propagating still deliver — bits on the wire have left.
// Bringing the link back up is instant; traffic flows on the next Enqueue.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down {
		return
	}
	if !l.txArmed && l.eng.Now() < l.lineFree {
		// The fate of the serializing packet is decided at lineFree.
		l.armTxDone()
	}
	for {
		p := l.queue.Pop()
		if p == nil {
			return
		}
		l.queueBytes -= p.Size
		l.drop(p, DropLinkDown)
	}
}

// SetTxFault installs (or clears, with nil) the fault plane's transmit
// hook.
func (l *Link) SetTxFault(f TxFault) { l.fault = f }

// DropEvents is the stream of every packet the link discards — queue
// rejections, down-link drops and fault losses (used for §2.6 drop
// notifications and loss localization). Drops are terminal: the packet is
// returned to its pool once the subscribers have run, so subscribers must
// Clone what they keep.
func (l *Link) DropEvents() *stream.Stream[DropEvent] { return &l.drops }

// drop is the terminal drop path: count the packet, publish it on
// DropEvents, then return the packet to its pool.
func (l *Link) drop(p *Packet, reason DropReason) {
	l.stats.DropBytes += uint64(p.Size)
	l.stats.DropPackets++
	l.drops.Publish(DropEvent{p, reason})
	p.Release()
}

// PresizeQueues grows the output and inflight rings to the drop-tail-bounded
// worst case for the smallest wire frame the traffic can carry (minWire <= 0
// assumes a 55-byte frame: 1 payload byte plus transport framing). Queue
// occupancy is byte-capped, so this bound is exact — after it, record-depth
// bursts never reallocate. Purely a memory pre-commitment; behavior,
// counters and fingerprints are unchanged.
func (l *Link) PresizeQueues(minWire int) {
	if minWire <= 0 {
		minWire = 55
	}
	l.queue.Reserve(l.cfg.QueueBytes/minWire + 1)
	// The inflight ring holds packets from start of serialization to
	// delivery: at most a bandwidth-delay product's worth of minimum-size
	// frames, plus the one still serializing (its delivery is booked when
	// serialization starts, see startTransmit).
	bdpBits := float64(l.cfg.Delay) * float64(l.cfg.RateBps) / 1e9
	l.inflight.Reserve(int(bdpBits/float64(minWire*8)) + 3)
}

// QueueLenPackets returns the current queue occupancy in packets.
func (l *Link) QueueLenPackets() int { return l.queue.Len() }

// QueueLenBytes returns the current queue occupancy in bytes.
func (l *Link) QueueLenBytes() int { return l.queueBytes }

// roll advances the utilization window if it has elapsed.
func (l *Link) roll() {
	now := l.eng.Now()
	elapsed := now - l.winStart
	if elapsed < utilWindow {
		return
	}
	// Average over however many windows elapsed; long idle gaps decay the
	// estimate toward zero, like a hardware counter that keeps updating.
	capacity := l.cfg.RateBps * int64(elapsed) / int64(sim.Second)
	if capacity <= 0 {
		l.utilPm = 0
		l.arrPm = 0
	} else {
		pm := l.winBytes * 8 * 1000 / capacity
		if pm > 1000 {
			pm = 1000
		}
		l.utilPm = uint32(pm)
		apm := l.arrBytes * 8 * 1000 / capacity
		if apm > 4000 {
			apm = 4000 // clamp runaway overload readings
		}
		l.arrPm = uint32(apm)
	}
	l.winStart = now
	l.winBytes = 0
	l.arrBytes = 0
}

// UtilPermille returns transmit utilization in permille of capacity over the
// last completed window.
func (l *Link) UtilPermille() uint32 {
	l.roll()
	return l.utilPm
}

// ArrivalUtilPermille returns the offered load (arrival rate including
// eventual drops) in permille of capacity; it can exceed 1000 when the link
// is overloaded, which is exactly the signal RCP's y(t) term needs.
func (l *Link) ArrivalUtilPermille() uint32 {
	l.roll()
	return l.arrPm
}

// Enqueue offers a packet to the output queue. It returns false when the
// packet was dropped — drop-tail or a down link — in which case the link
// has already published it on DropEvents and returned the packet to its
// pool: the caller must not touch it again.
func (l *Link) Enqueue(p *Packet) bool {
	if p.inPool {
		panic("link: Enqueue of a packet already returned to its pool")
	}
	l.roll()
	l.arrBytes += int64(p.Size)
	if l.down {
		l.drop(p, DropLinkDown)
		return false
	}
	if l.queueBytes+p.Size > l.cfg.QueueBytes {
		l.drop(p, DropQueueFull)
		return false
	}
	l.queue.Push(p)
	l.queueBytes += p.Size
	switch {
	case l.txArmed:
		// The pending txDone will start this packet (or one ahead of it).
	case l.eng.Now() < l.lineFree:
		// First packet to wait on the current serialization: now its end
		// needs an event.
		l.armTxDone()
	default:
		// No txDone armed and the line free time has come: the line is free.
		// (At exactly lineFree the elided txDone counts as already fired.)
		l.startTransmit()
	}
	return true
}

// Event arguments for the link's resident events: each Link is its own
// sim.Handler, re-armed per packet, so the per-packet transmit-done and
// delivery events allocate nothing.
const (
	linkArgTxDone  = 0
	linkArgDeliver = 1
)

// Handle dispatches the link's resident events. Deliver fires once per
// started serialization; txDone only for the serializations that armed it.
func (l *Link) Handle(arg uint64) {
	switch arg {
	case linkArgTxDone:
		// Serialization finished and something waited on it: a queued
		// packet, a link-down decision, or a boundary crossing.
		l.txArmed = false
		if l.boundary != nil {
			p := l.txPkt
			l.txPkt = nil
			if l.down {
				l.drop(p, DropLinkDown)
			} else {
				// The receiver lives in another shard: park the packet for that
				// shard to drain instead of scheduling delivery here.
				l.boundary.park(p, l.eng.Now())
			}
		} else if l.down {
			// The link went down while this packet serialized; it never
			// makes it onto the wire. It is the inflight tail with a
			// delivery booked: void the slot (positions ahead of it hold)
			// and let the deliver event find the tombstone.
			l.drop(l.inflight.VoidTail(), DropLinkDown)
		}
		l.startTransmit()
	case linkArgDeliver:
		// Deliveries complete in serialization order (constant delay), so
		// the arriving packet is always the inflight head — nil if it was
		// voided by a link-down before it departed.
		if p := l.inflight.Pop(); p != nil {
			l.dst.Receive(p, l.dstPort)
		}
	}
}

// armTxDone schedules the current serialization's end-of-serialization
// event, under the key it would have had if scheduled when serialization
// began: (at = lineFree, ins = txStart, seq = the number reserved there).
func (l *Link) armTxDone() {
	l.txArmed = true
	l.eng.ScheduleKeyed(l.lineFree, l.txStart, l.txSeq, l, linkArgTxDone)
}

// startTransmit serializes the head-of-line packet. With a fault plane
// armed it keeps popping past fault-dropped packets until a survivor (or an
// empty queue); the survivor's serialization may be stretched by the fault
// plane's jitter stall.
//
// The departure time is known here, so the delivery is booked here and the
// txDone event is elided unless something already waits on it. Key rule:
// the events keep the tie-break keys of a link that ran txDone for every
// packet — a sequence number is reserved where that txDone would have taken
// one (armTxDone files a late-armed txDone under it), and the delivery is
// filed under ins = lineFree, the instant the txDone handler would have
// scheduled it.
func (l *Link) startTransmit() {
	var (
		p     *Packet
		stall sim.Time
	)
	for {
		p = l.queue.Pop()
		if p == nil {
			return
		}
		l.queueBytes -= p.Size
		if l.fault == nil {
			break
		}
		drop, s := l.fault.FilterTx(p)
		if !drop {
			stall = s
			break
		}
		l.drop(p, DropFaultLoss)
	}

	txTime := sim.Time(int64(p.Size)*8*int64(sim.Second)/l.cfg.RateBps) + stall
	if txTime < 1 {
		txTime = 1
	}
	l.roll()
	l.winBytes += int64(p.Size)
	l.stats.TxBytes += uint64(p.Size)
	l.stats.TxPackets++

	l.txStart = l.eng.Now()
	l.lineFree = l.txStart + txTime
	l.txSeq = l.eng.ReserveSeq()
	if l.boundary != nil {
		// Boundaries park at txDone: always armed, no delivery booked here.
		l.txPkt = p
		l.armTxDone()
		return
	}
	l.inflight.Push(p)
	l.eng.ScheduleKeyed(l.lineFree+l.cfg.Delay, l.lineFree, l.eng.ReserveSeq(), l, linkArgDeliver)
	if l.queue.Len() > 0 {
		l.armTxDone()
	}
}

// Pending reports whether the link still holds or is serializing packets
// (including packets parked at a shard boundary awaiting their barrier).
func (l *Link) Pending() bool {
	return l.txArmed || l.eng.Now() < l.lineFree || l.queue.Len() > 0 ||
		(l.boundary != nil && l.boundary.PendingCrossings() > 0)
}
