// Package tppnet is the public facade over the simulated TPP network
// substrate: hosts running the §4 end-host stack, TPP-capable switches,
// rate/delay links, and the topologies of the paper's evaluation. It is the
// package to import to stand up a network and push TPP-instrumented traffic
// through it; package tpp provides the programs themselves, subpackage
// tppnet/app the framework minion applications are built on, apps/* the
// paper's five applications on that framework, and package testbed the
// ready-made experiment runners built on top of all of them.
//
// Networks are created with functional options and wired either manually or
// with a topology method:
//
//	net := tppnet.NewNetwork(tppnet.WithSeed(1))
//	hosts, left, right := net.Dumbbell(6, 100) // Figure 1
//	app := net.CP.RegisterApp("monitor")
//	hosts[0].AddTPP(app, tppnet.FilterSpec{Proto: tppnet.ProtoUDP}, prog, 1, 0)
//	net.Run()
//
// Everything is deterministic for a given seed: the simulation runs on a
// virtual clock, so results are reproducible across machines.
//
// The packet path is observed one way, by subscribing to a typed stream
// (tppnet/app.Stream): Switch.DropEvents carries every dropped packet and
// its DropReason, Switch.DropNotifies the §2.6 clones of dropped
// drop-notify TPPs, Link.DropEvents one link's discards, Host.Transmits
// every packet a host puts on its NIC and Host.ExecFailures the reliable
// executor's give-ups. Subscribers run in subscription order on the
// simulation goroutine; each Subscribe returns its own cancel, and cancels
// may come in any order. Except on DropNotifies, the packet goes back to
// its pool (or on to the network) when the subscribers return: Clone what
// you keep.
package tppnet

import (
	"minions/internal/core"
	"minions/internal/device"
	"minions/internal/faults"
	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/topo"
	"minions/internal/transport"
	"minions/workload"
)

// Substrate types, the stable public names for the network layer.
type (
	// Host is an end host running the TPP stack: the dataplane shim
	// (AddTPP, RegisterAggregator), the reliable executor (ExecuteTPP,
	// ScatterGather) and the per-host TCPU (SetLocalMemory).
	Host = host.Host
	// Switch is a TPP-capable switch: Figure 6's pipeline plus a resident,
	// allocation-free TCPU executing one hop per forwarded packet.
	Switch = device.Switch
	// SwitchConfig configures a manually created switch.
	SwitchConfig = device.Config
	// ControlPlane is the central TPP-CP of §4.1: application identities,
	// memory grants, and static analysis of programs before installation.
	ControlPlane = host.ControlPlane
	// App is a registered TPP application identity.
	App = host.App
	// Filter is one installed shim interposition rule.
	Filter = host.Filter
	// FilterSpec matches packets for TPP attachment, iptables-style.
	FilterSpec = host.FilterSpec
	// Aggregator consumes fully executed TPPs for one application (§4.5);
	// registered per host via Host.RegisterAggregator or app.Base.Aggregate.
	Aggregator = host.Aggregator
	// ExecOpts tunes reliable TPP execution (timeout, attempts, path tag).
	ExecOpts = host.ExecOpts
	// GatherResult is one switch's outcome in a ScatterGather.
	GatherResult = host.GatherResult
	// Packet is an in-flight simulated packet.
	Packet = link.Packet
	// FlowKey is a packet's 5-tuple.
	FlowKey = link.FlowKey
	// NodeID addresses a host or switch.
	NodeID = link.NodeID
	// Link is one unidirectional rate/delay/queue link.
	Link = link.Link
	// LinkConfig parameterizes one link.
	LinkConfig = link.Config
	// Pool is a packet free list; every network wires one shared pool into
	// its hosts (Network.PacketPool), making steady-state forwarding
	// allocation-free. See its documentation for the ownership rules.
	Pool = link.Pool
	// Ring is a reusable FIFO packet ring buffer, the structure behind link
	// output queues and transport send queues.
	Ring = link.Ring
	// Time is virtual simulation time in nanoseconds.
	Time = sim.Time
	// Engine is the deterministic discrete-event engine driving a network.
	Engine = sim.Engine
	// UDPFlow is a rate-limited CBR sender.
	UDPFlow = transport.UDPFlow
	// TCPFlow is the TCP-like AIMD transport.
	TCPFlow = transport.TCPFlow
	// Sink counts received traffic.
	Sink = transport.Sink
	// DropReason classifies switch-local packet drops.
	DropReason = device.DropReason
	// DropEvent is one dropped packet and its reason, the element type of
	// Switch.DropEvents and Switch.DropNotifies.
	DropEvent = device.DropEvent
	// LinkEnds names the transmitter and receiver of one unidirectional
	// link (same indexing as Links(); see Network.LinkEndsOf).
	LinkEnds = topo.LinkEnds
	// FaultPlan is a deterministic, seedable fault schedule: link flaps,
	// packet loss (Bernoulli and Gilbert-Elliott burst), TPP corruption,
	// serialization jitter and switch halts. Arm one with WithFaults; the
	// subpackage tppnet/faults re-exports the spec types and the telemetry
	// bridge.
	FaultPlan = faults.Plan
	// FaultInjector is an armed fault plan: counters and the event stream.
	FaultInjector = faults.Injector
	// FaultEvent is one fault-plane occurrence (link down/up, burst
	// start/end, switch halt/restart).
	FaultEvent = faults.Event
	// ExecFailure is the executor's give-up record, published on
	// Host.ExecFailures when a reliable execution exhausts its retries.
	ExecFailure = host.ExecFailure
)

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// IP protocol numbers used by FilterSpec and NewPacket.
const (
	ProtoUDP = link.ProtoUDP
	ProtoTCP = link.ProtoTCP
)

// Vendor-space registers implementing §2.6 in-band route updates: STORE a
// destination into RegRouteUpdateDst and a port into RegRouteUpdatePort and
// the route commits as the TPP passes through the switch.
const (
	RegRouteUpdateDst  = device.RegRouteUpdateDst
	RegRouteUpdatePort = device.RegRouteUpdatePort
	// VendorScratchBase and above is free scratch space.
	VendorScratchBase = device.VendorScratchBase
)

// Transport helpers, re-exported.
var (
	// NewUDPFlow creates a CBR sender.
	NewUDPFlow = transport.NewUDPFlow
	// NewTCPFlow creates a TCP-like AIMD sender.
	NewTCPFlow = transport.NewTCPFlow
	// NewTCPSink creates a TCP receiver.
	NewTCPSink = transport.NewTCPSink
	// NewSink creates a counting receiver.
	NewSink = transport.NewSink
	// SendBurst transmits a message as a back-to-back packet burst.
	SendBurst = transport.SendBurst
)

// MapMemory is a map-backed switch memory, handy as a host-local view for
// Host.SetLocalMemory and in tests.
type MapMemory = core.MapMemory

// SyncStats are the sharded engine's synchronization counters (see
// sim.SyncStats); read them from Group().Stats() between runs.
type SyncStats = sim.SyncStats

// options collects functional-option state for NewNetwork.
type options struct {
	seed   int64
	shards int
	faults *faults.Plan
}

// Option configures NewNetwork.
type Option func(*options)

// WithSeed fixes the simulation's random seed (default 1). Every run of the
// same network with the same seed produces identical packet-level behavior.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithShards splits the network across n topology shards, each simulated by
// its own engine (and persistent worker goroutine, when GOMAXPROCS allows)
// and synchronized conservatively: each shard advances asynchronously to
// the minimum over its incoming shard-crossing links of (source-shard clock
// + link propagation delay), draining lock-free crossing mailboxes as it
// goes. The default, 1, is the classic single-engine simulator. The
// built-in topology methods partition automatically (pod-aligned for
// fat-trees, min-cut-ish otherwise); manually wired nodes land in shard 0
// unless a partition is planned via PlanPartition.
//
// Results are deterministic for a given (seed, shard count) regardless of
// goroutine scheduling, and match the single-shard run except in the
// measure-zero case of two causally unrelated events in different shards
// colliding on both firing and insertion instants (see sim.ShardGroup).
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithFaults arms a fault plan on the network: the plan's fault events are
// scheduled onto the topology the first time the network runs (the plan
// needs the links and switches to exist, so arming is deferred past
// wiring). A nil plan is a no-op — and an unarmed network pays nothing:
// the forwarding hot path's only fault-plane cost is a nil check.
func WithFaults(plan *FaultPlan) Option {
	return func(o *options) { o.faults = plan }
}

// Network is a wired simulation: a deterministic engine, the shared TPP-CP,
// and the hosts, switches and links connected so far. The embedded substrate
// exposes AddHost, AddSwitch, Connect, ComputeRoutes, Links, CP and Eng
// directly.
type Network struct {
	*topo.Network

	faultPlan *faults.Plan
	injector  *faults.Injector
}

// NewNetwork creates an empty network.
func NewNetwork(opts ...Option) *Network {
	o := options{seed: 1, shards: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return &Network{
		Network:   topo.NewSharded(o.seed, o.shards),
		faultPlan: o.faults,
	}
}

// ArmFaults arms the WithFaults plan now (idempotent): topology wiring must
// be complete. Run and RunFor arm automatically; call this earlier only to
// subscribe to the injector's event stream before the first run. It panics
// on an invalid plan (out-of-range target indices), which is a programming
// error in the plan, and returns nil when no plan was configured.
func (n *Network) ArmFaults() *FaultInjector {
	if n.injector != nil || n.faultPlan == nil {
		return n.injector
	}
	n.injector = faults.NewInjector(*n.faultPlan)
	if err := n.injector.Arm(n.Links(), n.Switches); err != nil {
		panic("tppnet: " + err.Error())
	}
	return n.injector
}

// Faults returns the armed fault injector, nil when no plan is configured
// (or before the first Run/ArmFaults).
func (n *Network) Faults() *FaultInjector { return n.injector }

// Run processes simulation events across every shard until none remain,
// returning the count.
func (n *Network) Run() int {
	n.ArmFaults()
	return n.Network.Run()
}

// RunFor processes events for d of virtual time, returning the count.
func (n *Network) RunFor(d Time) int {
	n.ArmFaults()
	return n.Network.RunUntil(n.Now() + d)
}

// RunUntil processes events until virtual time t, returning the count.
func (n *Network) RunUntil(t Time) int {
	n.ArmFaults()
	return n.Network.RunUntil(t)
}

// Dumbbell wires the Figure 1 topology: two switches joined by one link,
// half the hosts on each side, all links at rateMbps. Routes are computed.
func (n *Network) Dumbbell(hosts, rateMbps int) ([]*Host, *Switch, *Switch) {
	return topo.Dumbbell(n.Network, hosts, rateMbps)
}

// Chain wires the Figure 2 topology: switches S1-S2-S3 in a line with both
// inter-switch links at rateMbps and 10x-faster host links.
func (n *Network) Chain(rateMbps int) ([]*Host, []*Switch) {
	return topo.Chain(n.Network, rateMbps)
}

// LeafSpine wires the Figure 4 CONGA topology: three leaves, two spines,
// one host per leaf.
func (n *Network) LeafSpine(rateMbps int) (hosts []*Host, leaves, spines []*Switch) {
	return topo.Conga(n.Network, rateMbps)
}

// FatTree wires a k-ary fat-tree (k even) and returns hosts grouped by pod.
func (n *Network) FatTree(k, rateMbps int) [][]*Host {
	return topo.FatTree(n.Network, k, rateMbps)
}

// HostLink returns the standard host-attachment link config at rateMbps.
func HostLink(rateMbps int) LinkConfig { return topo.HostLink(rateMbps) }

// FatTreeDims returns (hosts, coreLinks) for a k-ary fat-tree analytically,
// the §2.5 sizing arithmetic.
func FatTreeDims(k int) (hosts, coreLinks int) { return topo.FatTreeDims(k) }

// AttachWorkload compiles a workload.Spec onto every host of the wired
// network (creation order) and arms its generators — the facade entry to
// the scriptable workload engine in package minions/workload. Call after
// the topology is built and before running; the returned Runner exposes
// sinks, per-group counters and a deterministic fingerprint.
func (n *Network) AttachWorkload(spec workload.Spec) (*workload.Runner, error) {
	return spec.Attach(n.Hosts)
}
