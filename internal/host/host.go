// Package host implements the end-host stack of §4 (Figure 9): a dataplane
// shim that transparently attaches TPPs to outgoing packets (matching an
// iptables-style filter chain with sampling), strips and dispatches fully
// executed TPPs to per-application aggregators, echoes standalone TPPs back
// to their sources, and a TPP control-plane agent (TPP-CP) that allocates
// application IDs and switch memory and enforces memory access policies by
// static analysis before a TPP is ever installed.
package host

import (
	"fmt"

	"minions/internal/core"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/stream"
)

// MTU is the wire MTU the shim enforces when piggybacking TPPs; packets
// whose size plus TPP would exceed it are sent without instrumentation
// (§8 "MTU issues").
const MTU = 1514

// Aggregator consumes fully executed TPPs for one application (§4.5): the
// per-node post-processing stage that feeds collectors.
type Aggregator func(p *link.Packet, view core.Section)

// bindKey demultiplexes received packets to transports.
type bindKey struct {
	port  uint16
	proto uint8
}

// Filter is one entry of the shim's interposition table (§4.1 add_tpp):
// packets matching Spec get Prog attached with probability 1/SampleFreq.
type Filter struct {
	App        *App
	Spec       FilterSpec
	Prog       *core.Program
	SampleFreq int // N: attach to one in N matching packets; 1 = all
	Priority   int // lower value = matched earlier

	encoded core.Section // pre-encoded template, cloned per packet
	matched uint64       // matching packets seen (for sampling)
	applied uint64       // TPPs actually attached
}

// FilterSpec matches packets, iptables-style; zero fields match anything.
type FilterSpec struct {
	Proto   uint8
	DstPort uint16
	SrcPort uint16
	Dst     link.NodeID
}

// Matches reports whether the packet satisfies the spec.
func (f FilterSpec) Matches(p *link.Packet) bool {
	if f.Proto != 0 && p.Flow.Proto != f.Proto {
		return false
	}
	if f.DstPort != 0 && p.Flow.DstPort != f.DstPort {
		return false
	}
	if f.SrcPort != 0 && p.Flow.SrcPort != f.SrcPort {
		return false
	}
	if f.Dst != 0 && p.Flow.Dst != f.Dst {
		return false
	}
	return true
}

// Stats counts shim activity.
type Stats struct {
	TxPackets, TxBytes uint64
	RxPackets, RxBytes uint64
	TPPsAttached       uint64
	TPPBytesAdded      uint64
	TPPsStripped       uint64
	TPPsEchoed         uint64
	TPPsLocalExec      uint64 // TPPs executed by the shim's own TCPU
	MTUSkips           uint64 // packets too full to instrument
	UnclaimedViews     uint64 // executed TPPs with no aggregator
}

// Host is a simulated end host running the TPP stack.
type Host struct {
	eng *sim.Engine
	id  link.NodeID
	cp  *ControlPlane

	nic     *link.Link
	pool    *link.Pool // packet free list (nil = GC-managed packets)
	filters []*Filter
	aggs    map[uint16]Aggregator
	binds   map[bindKey]func(*link.Packet)

	pendingExec map[uint16]*pendingExec
	nextPort    uint16

	nextPktID uint64
	stats     Stats

	transmits stream.Stream[*link.Packet]

	// execFailures publishes reliable executions that exhausted their
	// retry budget (see ExecFailures).
	execFailures stream.Stream[ExecFailure]

	// The shim's resident TCPU: when localMem is set, the filter path runs
	// hop 0 of every TPP it attaches against the host's own memory view, so
	// the end-host stack shows up in collected telemetry like any switch
	// hop (§4.2, Figure 9). The executor is reused across packets and
	// allocates nothing per TPP.
	tcpu     core.Executor
	localMem core.SwitchMemory
}

// New creates a host with the given node ID, attached to a shared TPP-CP.
func New(eng *sim.Engine, id link.NodeID, cp *ControlPlane) *Host {
	// The three demux maps (binds, aggs, pendingExec) allocate lazily on
	// first registration: nil-map reads are valid Go, and most hosts of a
	// large fabric never bind a port or launch a reliable execution.
	return &Host{
		eng:      eng,
		id:       id,
		cp:       cp,
		nextPort: 49152,
	}
}

// ID returns the host's node ID.
func (h *Host) ID() link.NodeID { return h.id }

// Engine returns the simulation engine (for transports and apps).
func (h *Host) Engine() *sim.Engine { return h.eng }

// ControlPlane returns the shared TPP-CP.
func (h *Host) ControlPlane() *ControlPlane { return h.cp }

// AttachNIC wires the host's single egress link (done by the topology).
func (h *Host) AttachNIC(l *link.Link) { h.nic = l }

// SetPool wires a packet free list: NewPacket draws from it and the shim's
// terminal receive paths return packets to it (see link.Pool for the
// ownership rules). The topology layer shares one pool across all hosts of
// a network.
func (h *Host) SetPool(pl *link.Pool) { h.pool = pl }

// Pool returns the host's packet free list, nil if none is wired.
func (h *Host) Pool() *link.Pool { return h.pool }

// NIC returns the egress link.
func (h *Host) NIC() *link.Link { return h.nic }

// Stats returns a snapshot of shim counters.
func (h *Host) Stats() Stats { return h.stats }

// Bind registers a receive handler for a destination port and protocol.
func (h *Host) Bind(port uint16, proto uint8, fn func(*link.Packet)) {
	if h.binds == nil {
		h.binds = make(map[bindKey]func(*link.Packet))
	}
	h.binds[bindKey{port, proto}] = fn
}

// Unbind removes a receive handler.
func (h *Host) Unbind(port uint16, proto uint8) {
	delete(h.binds, bindKey{port, proto})
}

// RegisterAggregator installs the per-application consumer of executed TPPs.
func (h *Host) RegisterAggregator(wireApp uint16, agg Aggregator) {
	if h.aggs == nil {
		h.aggs = make(map[uint16]Aggregator)
	}
	h.aggs[wireApp] = agg
}

// UnregisterAggregator removes the application's consumer, part of app
// teardown: executed TPPs for the wire handle count as unclaimed afterwards.
func (h *Host) UnregisterAggregator(wireApp uint16) {
	delete(h.aggs, wireApp)
}

// SetLocalMemory gives the shim its own switch-memory view. When non-nil,
// the transmit filter path executes hop 0 of every attached TPP locally, so
// collected per-hop records start with the sending host's state. Pass nil to
// restore switch-only execution.
//
// The host's record consumes one hop slot of packet memory: programs built
// with default sizing preallocate 5 hop records, which then covers the host
// plus only 4 switches. On longer paths size explicitly — e.g.
// tpp.NewProgram().Hops(pathLen+1) or the assembler's .hops directive —
// or the final switch halts with HaltMemoryExhausted and its record is
// absent from the aggregator view.
func (h *Host) SetLocalMemory(m core.SwitchMemory) {
	h.localMem = m
	h.tcpu = *core.NewExecutor(core.Env{Mem: m})
}

// AddTPP implements the TPP-CP API of §4.1:
//
//	add_tpp(filter, tpp_bytes, sample_frequency, priority)
//
// The program is statically analyzed against the application's memory
// grants; the call fails if the TPP touches memory outside them.
func (h *Host) AddTPP(app *App, spec FilterSpec, prog *core.Program, sampleFreq, priority int) (*Filter, error) {
	if sampleFreq < 1 {
		return nil, fmt.Errorf("host: sample frequency must be >= 1")
	}
	if err := h.cp.ValidateProgram(app, prog); err != nil {
		return nil, err
	}
	prog.AppID = app.Wire
	enc, err := prog.Encode()
	if err != nil {
		return nil, err
	}
	f := &Filter{
		App: app, Spec: spec, Prog: prog,
		SampleFreq: sampleFreq, Priority: priority,
		encoded: enc,
	}
	// Insert keeping priority order (stable for equal priorities), so the
	// dataplane can stop at the first match (§4.2 "adds a TPP to the first
	// match").
	idx := len(h.filters)
	for i, g := range h.filters {
		if f.Priority < g.Priority {
			idx = i
			break
		}
	}
	h.filters = append(h.filters, nil)
	copy(h.filters[idx+1:], h.filters[idx:])
	h.filters[idx] = f
	return f, nil
}

// RemoveTPP uninstalls a filter.
func (h *Host) RemoveTPP(f *Filter) {
	for i, g := range h.filters {
		if g == f {
			h.filters = append(h.filters[:i], h.filters[i+1:]...)
			return
		}
	}
}

// NumFilters returns the installed filter count.
func (h *Host) NumFilters() int { return len(h.filters) }

// NewPacket allocates a packet originating at this host, drawing from the
// host's packet pool when one is wired (the steady-state zero-allocation
// path) and falling back to a GC-managed packet otherwise.
func (h *Host) NewPacket(dst link.NodeID, sport, dport uint16, proto uint8, size int) *link.Packet {
	h.nextPktID++
	var p *link.Packet
	if h.pool != nil {
		p = h.pool.Get()
	} else {
		p = &link.Packet{}
	}
	p.ID = uint64(h.id)<<32 | h.nextPktID
	p.Flow = link.FlowKey{
		Src: h.id, Dst: dst,
		SrcPort: sport, DstPort: dport, Proto: proto,
	}
	p.Size = size
	p.TTL = 64
	return p
}

// Send pushes a packet through the shim's transmit path: filter match, TPP
// attachment (§4.2 interposition), then the NIC.
func (h *Host) Send(p *link.Packet) {
	h.attachTPP(p)
	h.sendRaw(p)
}

// Inject transmits a fully formed packet without shim interposition — the
// entry point for trace replay, where the packet already carries whatever
// TPP it left with in the recorded run and must not be re-instrumented.
func (h *Host) Inject(p *link.Packet) { h.sendRaw(p) }

// attachTPP applies the first matching filter, honoring sampling and MTU.
func (h *Host) attachTPP(p *link.Packet) {
	if p.TPP != nil {
		return // at most one TPP per packet (§4.2)
	}
	for _, f := range h.filters {
		if !f.Spec.Matches(p) {
			continue
		}
		f.matched++
		if f.SampleFreq > 1 && f.matched%uint64(f.SampleFreq) != 0 {
			return // matched the chain; sampled out
		}
		tppLen := len(f.encoded)
		if p.Size+tppLen > MTU {
			h.stats.MTUSkips++
			return
		}
		// Copy the pre-encoded template into the packet's retained section
		// buffer: after a pooled packet has carried a program of this size
		// once, attachment allocates nothing.
		tpp := p.SectionBuf(tppLen)
		copy(tpp, f.encoded)
		p.TPP = tpp
		p.Size += tppLen
		f.applied++
		h.stats.TPPsAttached++
		h.stats.TPPBytesAdded += uint64(tppLen)
		if h.localMem != nil {
			// Hop 0 runs on the shim itself (§4.2): the resident executor
			// has the program decoded after the first packet of a filter.
			h.tcpu.Exec(p.TPP)
			h.stats.TPPsLocalExec++
		}
		return
	}
}

// sendRaw transmits without interposition (already-instrumented or echo
// traffic).
func (h *Host) sendRaw(p *link.Packet) {
	p.SentAt = h.eng.Now()
	h.stats.TxPackets++
	h.stats.TxBytes += uint64(p.Size)
	h.transmits.Publish(p)
	if h.nic != nil {
		h.nic.Enqueue(p)
	}
}

// Transmits is the stream of every packet leaving the host, published below
// the shim in sendRaw — after SentAt is stamped and just before NIC enqueue
// — so subscribers see exactly the packets the NIC sees: filter-attached
// TPP traffic, the executor's standalone probes, and echoes of probes from
// other hosts. The network owns the packet once the subscribers have run;
// they copy what they keep. Used by telemetry/trace capture.
func (h *Host) Transmits() *stream.Stream[*link.Packet] { return &h.transmits }

// Receive implements link.Receiver: the shim's receive path (§4.2).
func (h *Host) Receive(p *link.Packet, port int) {
	h.stats.RxPackets++
	h.stats.RxBytes += uint64(p.Size)

	if p.TPP != nil {
		echoed := p.TPP.Flags()&core.FlagEchoed != 0
		if p.Standalone {
			if !echoed && p.Flow.Dst == h.id {
				// A standalone TPP that finished executing here: echo it to
				// the source (§4.2 "echoes any standalone TPPs that have
				// finished executing back to the packet's source").
				h.stats.TPPsEchoed++
				p.Flow.Src, p.Flow.Dst = p.Flow.Dst, p.Flow.Src
				p.Flow.SrcPort, p.Flow.DstPort = p.Flow.DstPort, p.Flow.SrcPort
				p.TPP.SetFlags(p.TPP.Flags() | core.FlagEchoed)
				h.sendRaw(p)
				return
			}
			// An echo arriving home: complete a pending executor request or
			// hand to the application aggregator, then recycle the probe —
			// its journey ends here. Consumers copy what they keep, so the
			// view is valid only during the dispatch.
			h.dispatchView(p, p.TPP)
			p.Release()
			return
		}
		// Piggybacked: strip the TPP (§4.2: "applications are oblivious to
		// TPPs") and dispatch the executed view.
		view := p.TPP
		p.TPP = nil
		p.Size -= view.Len()
		h.stats.TPPsStripped++
		h.dispatchView(p, view)
	}

	if fn := h.binds[bindKey{p.Flow.DstPort, p.Flow.Proto}]; fn != nil {
		fn(p) // the handler (or its sink) owns the packet from here
	} else {
		p.Release() // no consumer: recycle pooled packets
	}
}

// dispatchView routes an executed TPP to its consumer.
func (h *Host) dispatchView(p *link.Packet, view core.Section) {
	if pe, ok := h.pendingExec[p.Flow.DstPort]; ok && p.Standalone {
		pe.complete(view)
		return
	}
	if agg, ok := h.aggs[view.AppID()]; ok {
		agg(p, view)
		return
	}
	h.stats.UnclaimedViews++
}

// ephemeralPort allocates a correlation port for executor requests.
func (h *Host) ephemeralPort() uint16 {
	for {
		h.nextPort++
		if h.nextPort < 49152 {
			h.nextPort = 49152
		}
		if _, used := h.pendingExec[h.nextPort]; !used {
			return h.nextPort
		}
	}
}
