// Package device implements a TPP-capable switch: the abstract dataplane
// pipeline of Figure 6 (parse → match-action routing with versioned tables →
// output queues), the distributed TCPU of §3.5 executing TPPs against a
// packet-consistent memory view, per-port/per-queue statistics blocks
// (appendix Tables 6-8), write access control (§4.3), reflection and
// targeted execution support (§4.4), drop notifications (§2.6), and in-band
// route updates ("Fast network updates", §2.6).
package device

import (
	"fmt"

	"minions/internal/core"
	"minions/internal/link"
	"minions/internal/mem"
	"minions/internal/sim"
	"minions/internal/stream"
)

// Port is one switch port: an optional egress link plus receive-side
// counters and the software-managed AppSpecific registers of §2.2.
type Port struct {
	Out    *link.Link // egress; nil when nothing is attached
	LinkID uint32     // network-unique link identifier ([Link:ID])

	rxBytes   uint64
	rxPackets uint64
	appSpec   [8]uint32
}

// RxStats returns receive-side byte and packet counters.
func (p *Port) RxStats() (bytes, packets uint64) { return p.rxBytes, p.rxPackets }

// AppSpecific returns the current value of AppSpecific register i.
func (p *Port) AppSpecific(i int) uint32 { return p.appSpec[i] }

// SetAppSpecific sets AppSpecific register i (control-plane path).
func (p *Port) SetAppSpecific(i int, v uint32) { p.appSpec[i] = v }

// RouteEntry is one routing-table entry: a destination bound to an ECMP
// group of output ports, with the per-entry statistics block of Table 6.
// Entries are stored by value in the switch's dense table, 20 bytes each:
// the ECMP group is an index into the switch's interned group table (a
// fat-tree needs only O(k) distinct groups however large the table), and
// the statistics are 32-bit because every TPP register read of them is
// 32-bit anyway (wrapping is the same truncation). An entry with id == 0 is
// an empty table slot; installed entries always have id >= 1.
type RouteEntry struct {
	id          uint32
	insertClock uint32
	matchPkts   uint32
	matchBytes  uint32
	group       uint32
}

// ID returns the entry's table-unique identifier ([FlowEntry:ID]).
func (e *RouteEntry) ID() uint32 { return e.id }

// DropReason classifies switch-local packet drops.
type DropReason uint8

const (
	DropNoRoute DropReason = iota
	DropTTLExpired
	DropQueueFull
	DropNoLink
	// DropSwitchHalted: the fault plane halted this switch; ingress traffic
	// is discarded until restart.
	DropSwitchHalted
	// DropLinkDown: the egress link was down (reported by the link).
	DropLinkDown
	// DropFaultLoss: the fault plane discarded the packet on the egress
	// link (random or burst loss).
	DropFaultLoss

	// NumDropReasons sizes the switch's fixed drop-counter array; keep it
	// last when adding reasons.
	NumDropReasons
)

// String names the reason.
func (d DropReason) String() string {
	switch d {
	case DropNoRoute:
		return "no-route"
	case DropTTLExpired:
		return "ttl-expired"
	case DropQueueFull:
		return "queue-full"
	case DropNoLink:
		return "no-link"
	case DropSwitchHalted:
		return "switch-halted"
	case DropLinkDown:
		return "link-down"
	case DropFaultLoss:
		return "fault-loss"
	}
	return "unknown"
}

// Config configures a switch.
type Config struct {
	ID       uint32
	VendorID uint32
	NumPorts int
	// NodeID is the switch's own address for targeted standalone TPPs
	// (§4.4: "creates a UDP packet and sends it to the switch IP").
	NodeID link.NodeID
	// ReflectTPPs enables §4.4 reflective TPPs: a TPP with FlagReflect is
	// executed and bounced straight back toward its source.
	ReflectTPPs bool
}

// Switch is a TPP-capable switch.
type Switch struct {
	eng *sim.Engine
	cfg Config

	ports []Port

	// The routing table is two dense slices of by-value entries indexed by
	// destination NodeID: routesLow covers host IDs 1..len-1 and routesHigh
	// covers switch IDs routeBase+1.., so the ID gap between the host range
	// and the switch base costs no memory. With routeBase 0 (no shape hint;
	// unit tests, ad-hoc switches) everything lands in routesLow. Slots with
	// id == 0 are absent. portArena backs every entry's ECMP group;
	// identical groups are interned, so a fat-tree switch stores O(k)
	// distinct groups however many thousands of entries it holds.
	routesLow  []RouteEntry
	routesHigh []RouteEntry
	routeBase  link.NodeID
	numRoutes  int
	portArena  []int
	portGroups []portGroup

	version     uint32 // forwarding-state generation ([Switch:Version])
	nextEntryID uint32
	lookupPkts  uint64
	lookupBytes uint64
	matchPkts   uint64
	matchBytes  uint64

	// vendorMem backs the platform-specific address space (§8), including
	// the in-band route-update registers. Allocated lazily on the first
	// vendor-space write — idle switches carry no map (nil-map reads are
	// safe and return the unimplemented-address miss).
	vendorMem map[mem.Addr]uint32
	// pendingRouteDst holds the staged destination for an in-band route add.
	pendingRouteDst uint32

	// writePolicy, when set, gates TPP writes per wire application handle.
	writePolicy func(appID uint16, a mem.Addr) bool
	// denyAllWrites is the administrator kill switch of §4.3.
	denyAllWrites bool

	// halted marks a fault-plane switch halt: all ingress traffic drops
	// until restart. Routing tables, registers and statistics survive the
	// outage, like a dataplane stall rather than a cold reboot.
	halted bool

	dropEvents   stream.Stream[DropEvent]
	dropNotifies stream.Stream[DropEvent]

	drops [NumDropReasons]uint64

	// The distributed TCPU of §3.5: one resident executor per switch, bound
	// once to a packet-consistent memory view whose context is repointed per
	// packet. Nothing on the per-hop execute path allocates.
	tcpu     core.Executor
	pktCtx   pktContext
	view     memView
	curAppID uint16
}

// New creates a switch with cfg.NumPorts unconnected ports.
func New(eng *sim.Engine, cfg Config) *Switch {
	if cfg.NumPorts <= 0 || cfg.NumPorts > mem.MaxPorts {
		panic(fmt.Sprintf("device: invalid port count %d", cfg.NumPorts))
	}
	sw := &Switch{
		eng:   eng,
		cfg:   cfg,
		ports: make([]Port, cfg.NumPorts),
	}
	sw.view = memView{sw: sw, ctx: &sw.pktCtx}
	sw.tcpu = *core.NewExecutor(core.Env{Mem: &sw.view, AllowWrite: sw.allowTPPWrite})
	return sw
}

// allowTPPWrite is the dataplane write gate of §4.3, evaluated against the
// application carried by the packet currently executing.
func (sw *Switch) allowTPPWrite(a mem.Addr) bool {
	if sw.denyAllWrites {
		return false
	}
	return sw.writePolicy == nil || sw.writePolicy(sw.curAppID, a)
}

// ID returns the switch identifier.
func (sw *Switch) ID() uint32 { return sw.cfg.ID }

// NodeID returns the switch's own network address.
func (sw *Switch) NodeID() link.NodeID { return sw.cfg.NodeID }

// Port returns port i.
func (sw *Switch) Port(i int) *Port { return &sw.ports[i] }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// AttachLink connects port i to an egress link and subscribes the switch's
// queue-drop accounting to the link's DropEvents.
func (sw *Switch) AttachLink(i int, l *link.Link, linkID uint32) {
	if sw.ports[i].Out == l {
		// Re-attaching the same link must not subscribe a second time
		// (drops would double-count).
		sw.ports[i].LinkID = linkID
		return
	}
	sw.ports[i].Out = l
	sw.ports[i].LinkID = linkID
	l.DropEvents().Subscribe(sw.linkDrop)
}

// Engine returns the engine this switch schedules on; fault injectors use
// it to arm halt/restart events on the owning shard.
func (sw *Switch) Engine() *sim.Engine { return sw.eng }

// Halted reports whether the switch is halted by the fault plane.
func (sw *Switch) Halted() bool { return sw.halted }

// SetHalted halts or restarts the switch. A halted switch drops every
// ingress packet (DropSwitchHalted); its forwarding state is preserved
// across the outage.
func (sw *Switch) SetHalted(v bool) { sw.halted = v }

// Version returns the forwarding-state generation counter.
func (sw *Switch) Version() uint32 { return sw.version }

// Drops returns the drop counter for a reason.
func (sw *Switch) Drops(r DropReason) uint64 {
	if r >= NumDropReasons {
		return 0
	}
	return sw.drops[r]
}

// portGroup names one interned ECMP group inside the port arena.
type portGroup struct{ off, n uint32 }

// internPorts returns the index of the interned ECMP group equal to ports,
// appending a new arena span only when no identical group exists. Dedup
// keeps the arena at a handful of groups per switch (a k-ary fat-tree needs
// at most k+O(1)), so the linear scan is cheap even while installing
// thousands of routes.
func (sw *Switch) internPorts(ports []int) uint32 {
	want := len(ports)
scan:
	for gi, g := range sw.portGroups {
		if int(g.n) != want || (want > 0 && sw.portArena[g.off] != ports[0]) {
			continue
		}
		for j := 1; j < want; j++ {
			if sw.portArena[int(g.off)+j] != ports[j] {
				continue scan
			}
		}
		return uint32(gi)
	}
	off := uint32(len(sw.portArena))
	sw.portArena = append(sw.portArena, ports...)
	sw.portGroups = append(sw.portGroups, portGroup{off: off, n: uint32(want)})
	return uint32(len(sw.portGroups) - 1)
}

// PresizeRoutes shapes the dense routing table for a known address layout:
// host destinations occupy IDs 1..maxHost and switch destinations
// base+1..base+numSwitches. Topology builders call it once per switch
// before installing routes; it allocates both regions at final size and
// anchors the high region at base so the host-ID/switch-base gap costs
// nothing. Ignored once entries exist (the split cannot move under a live
// table).
func (sw *Switch) PresizeRoutes(maxHost link.NodeID, base link.NodeID, numSwitches int) {
	if sw.numRoutes != 0 || base == 0 || base < maxHost {
		return
	}
	sw.routeBase = base
	if need := int(maxHost) + 1; need > len(sw.routesLow) {
		sw.routesLow = growEntries(sw.routesLow, need)
	}
	if numSwitches > len(sw.routesHigh) {
		sw.routesHigh = growEntries(sw.routesHigh, numSwitches)
	}
}

// growEntries extends a dense entry slice to at least need slots, keeping
// existing entries and amortizing repeated growth.
func growEntries(s []RouteEntry, need int) []RouteEntry {
	if need <= cap(s) {
		return s[:need]
	}
	newCap := need
	if c := 2 * cap(s); c > newCap {
		newCap = c
	}
	ns := make([]RouteEntry, need, newCap)
	copy(ns, s)
	return ns
}

// routeSlot returns dst's table slot, nil when dst lies outside the table's
// current extent. The hot forward path uses it: two compares and an index.
func (sw *Switch) routeSlot(dst link.NodeID) *RouteEntry {
	if sw.routeBase != 0 && dst > sw.routeBase {
		if i := int(dst - sw.routeBase - 1); i < len(sw.routesHigh) {
			return &sw.routesHigh[i]
		}
		return nil
	}
	if i := int(dst); i < len(sw.routesLow) {
		return &sw.routesLow[i]
	}
	return nil
}

// routeSlotAlloc returns dst's table slot, growing the owning region when
// dst lies beyond it (unit tests and in-band route updates install routes
// without a PresizeRoutes shape).
func (sw *Switch) routeSlotAlloc(dst link.NodeID) *RouteEntry {
	if sw.routeBase != 0 && dst > sw.routeBase {
		i := int(dst - sw.routeBase - 1)
		if i >= len(sw.routesHigh) {
			sw.routesHigh = growEntries(sw.routesHigh, i+1)
		}
		return &sw.routesHigh[i]
	}
	i := int(dst)
	if i >= len(sw.routesLow) {
		sw.routesLow = growEntries(sw.routesLow, i+1)
	}
	return &sw.routesLow[i]
}

// AddRoute installs (or replaces) the route for dst, bumping the table
// version — the counter NetSight-style applications read to detect
// forwarding-state changes. Installing may grow the dense table; pointers
// previously returned by Route are invalidated.
func (sw *Switch) AddRoute(dst link.NodeID, ports ...int) {
	for _, p := range ports {
		if p < 0 || p >= len(sw.ports) {
			panic(fmt.Sprintf("device: route port %d out of range", p))
		}
	}
	group := sw.internPorts(ports)
	slot := sw.routeSlotAlloc(dst)
	if slot.id == 0 {
		sw.numRoutes++
	}
	sw.nextEntryID++
	*slot = RouteEntry{
		id:          sw.nextEntryID,
		insertClock: uint32(uint64(sw.eng.Now())),
		group:       group,
	}
	sw.version++
}

// Route returns the routing entry for dst, if any. The pointer aliases the
// dense table and is valid only until the next AddRoute. Use RoutePorts for
// the entry's ECMP group.
func (sw *Switch) Route(dst link.NodeID) *RouteEntry {
	if e := sw.routeSlot(dst); e != nil && e.id != 0 {
		return e
	}
	return nil
}

// RoutePorts returns dst's ECMP port group (nil when no route exists). The
// slice aliases the switch's port arena; callers must not modify it.
func (sw *Switch) RoutePorts(dst link.NodeID) []int {
	e := sw.routeSlot(dst)
	if e == nil || e.id == 0 {
		return nil
	}
	g := sw.portGroups[e.group]
	return sw.portArena[g.off : g.off+g.n : g.off+g.n]
}

// NumRoutes returns the number of installed routing entries.
func (sw *Switch) NumRoutes() int { return sw.numRoutes }

// SetWritePolicy installs the per-application write filter used when TPPs
// execute (§4.1's access-control table, enforced in the dataplane).
func (sw *Switch) SetWritePolicy(f func(appID uint16, a mem.Addr) bool) {
	sw.writePolicy = f
}

// SetDenyAllWrites toggles the §4.3 kill switch for STORE/CSTORE/POP.
func (sw *Switch) SetDenyAllWrites(v bool) { sw.denyAllWrites = v }

// SetVendorReg sets a platform-specific register (§8), allocating the
// vendor space on first use.
func (sw *Switch) SetVendorReg(a mem.Addr, v uint32) {
	if sw.vendorMem == nil {
		sw.vendorMem = make(map[mem.Addr]uint32)
	}
	sw.vendorMem[a] = v
}

// DropEvent is one packet a switch dropped, as published on DropEvents and
// DropNotifies.
type DropEvent struct {
	Packet *link.Packet
	Reason DropReason
}

// DropEvents is the stream of every packet the switch drops, locally or at
// one of its egress links. The packet returns to its pool once the
// subscribers have run, so subscribers must Clone what they keep.
func (sw *Switch) DropEvents() *stream.Stream[DropEvent] { return &sw.dropEvents }

// DropNotifies is the §2.6 loss-localization mirror: for every dropped TPP
// packet that set FlagDropNotify it carries a truncated clone ("we can
// overcome dropped packets by sending packets that will be dropped to a
// collector"). The clone is detached from any packet pool and shared by
// the subscribers, which may retain it but must not modify it.
func (sw *Switch) DropNotifies() *stream.Stream[DropEvent] { return &sw.dropNotifies }

// drop records a switch-local drop, publishes it, and returns the packet
// to its pool.
func (sw *Switch) drop(p *link.Packet, reason DropReason) {
	sw.publishDrop(p, reason)
	p.Release()
}

// linkDrop accounts losses the egress link reports (drop-tail, down links,
// fault losses), mapping the link's reason into the switch's space. The
// link owns the release.
func (sw *Switch) linkDrop(ev link.DropEvent) {
	reason := DropQueueFull
	switch ev.Reason {
	case link.DropLinkDown:
		reason = DropLinkDown
	case link.DropFaultLoss:
		reason = DropFaultLoss
	}
	sw.publishDrop(ev.Packet, reason)
}

func (sw *Switch) publishDrop(p *link.Packet, reason DropReason) {
	sw.drops[reason]++
	sw.dropEvents.Publish(DropEvent{p, reason})
	if p.TPP == nil || p.TPP.Flags()&core.FlagDropNotify == 0 || !sw.dropNotifies.HasSubscribers() {
		return
	}
	clone := p.Clone()
	clone.Payload = nil
	sw.dropNotifies.Publish(DropEvent{clone, reason})
}

// Receive implements link.Receiver: the full ingress pipeline of Figure 6.
func (sw *Switch) Receive(p *link.Packet, inPort int) {
	port := &sw.ports[inPort]
	port.rxBytes += uint64(p.Size)
	port.rxPackets++

	if sw.halted {
		sw.drop(p, DropSwitchHalted)
		return
	}
	if p.TTL == 0 {
		sw.drop(p, DropTTLExpired)
		return
	}
	p.TTL--

	// §4.4 semantics for standalone TPPs addressed at this switch, and for
	// reflect-flagged TPPs: execute here, then bounce back to the source.
	bounce := false
	if p.TPP != nil && p.TPP.Flags()&core.FlagEchoed == 0 {
		if p.Flow.Dst == sw.cfg.NodeID {
			bounce = true
		} else if sw.cfg.ReflectTPPs && p.TPP.Flags()&core.FlagReflect != 0 {
			bounce = true
		}
	}
	if bounce {
		p.Flow.Src, p.Flow.Dst = p.Flow.Dst, p.Flow.Src
		p.Flow.SrcPort, p.Flow.DstPort = p.Flow.DstPort, p.Flow.SrcPort
		if p.Flow.Src == 0 {
			p.Flow.Src = sw.cfg.NodeID
		}
	}

	// Match-action stage 0: the routing table — two compares and a dense
	// array index, no hashing.
	sw.lookupPkts++
	sw.lookupBytes += uint64(p.Size)
	entry := sw.routeSlot(p.Flow.Dst)
	if entry == nil || entry.id == 0 {
		sw.drop(p, DropNoRoute)
		return
	}
	sw.matchPkts++
	sw.matchBytes += uint64(p.Size)
	entry.matchPkts++
	entry.matchBytes += uint32(p.Size)

	g := sw.portGroups[entry.group]
	group := sw.portArena[g.off : g.off+g.n]
	outPort := group[0]
	if len(group) > 1 {
		// Tagged packets are steered by the tag alone so end-hosts can pick
		// paths deterministically; untagged traffic gets per-flow ECMP.
		if p.PathTag != 0 {
			outPort = group[int(link.TagHash(p.PathTag)%uint32(len(group)))]
		} else {
			outPort = group[int(p.Flow.Hash(0)%uint32(len(group)))]
		}
	}

	// The TCPU: execute the TPP with a packet-consistent view. The context
	// carries the very values the forwarding logic just produced, with the
	// matched entry snapshotted by value: an in-band route update during
	// execution may grow the dense table, and the snapshot preserves the
	// packet-consistent (pre-update) view a pointer cannot.
	if p.TPP != nil && p.TPP.Flags()&core.FlagEchoed == 0 {
		sw.pktCtx = pktContext{
			pkt:      p,
			inPort:   inPort,
			outPort:  outPort,
			entry:    *entry,
			hasEntry: true,
			altPorts: len(group),
		}
		sw.curAppID = p.TPP.AppID()
		sw.tcpu.Exec(p.TPP)
		p.Hops++
		// A TPP write to [PacketMetadata:OutputPort] supersedes the
		// forwarding decision (§3.2: writes supersede forwarding logic).
		outPort = sw.pktCtx.outPort
		if bounce {
			p.TPP.SetFlags(p.TPP.Flags() | core.FlagEchoed)
		}
	}

	if outPort < 0 || outPort >= len(sw.ports) || sw.ports[outPort].Out == nil {
		sw.drop(p, DropNoLink)
		return
	}
	sw.ports[outPort].Out.Enqueue(p)
}

// Vendor-space registers implementing §2.6 "Fast network updates": writing
// a destination to RouteUpdateDst and then a port to RouteUpdatePort commits
// a route in half an RTT as the TPP passes through.
const (
	RegRouteUpdateDst  mem.Addr = mem.VendorBase + 0
	RegRouteUpdatePort mem.Addr = mem.VendorBase + 1
	// VendorScratchBase and above is free scratch space for tests/demos.
	VendorScratchBase mem.Addr = mem.VendorBase + 0x100
)
