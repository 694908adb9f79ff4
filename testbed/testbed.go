// Package testbed is the reproduction harness: one runner per table/figure
// of the paper's evaluation, built on the public tppnet network facade, the
// tpp program API and the public application layer under apps/ (RCP*,
// CONGA*, micro-burst, ndb/NetSight, OpenSketch). cmd/experiments and the
// repository's benchmarks are thin wrappers over these runners.
//
// The network substrate itself (hosts, switches, links, topologies) lives
// in package tppnet and the applications in apps/*; the aliases here exist
// so experiment code needs only one import. Runners take the substrate
// options they share as a single SimOpts struct (RunFig2, RunFig4).
package testbed

import "minions/tppnet"

// Substrate types, re-exported from the tppnet facade.
type (
	// Network is a wired simulation of hosts, switches and links.
	Network = tppnet.Network
	// Host is an end host running the §4 TPP stack.
	Host = tppnet.Host
	// Switch is a TPP-capable switch.
	Switch = tppnet.Switch
	// App is a registered TPP application identity.
	App = tppnet.App
	// FilterSpec matches packets for TPP attachment.
	FilterSpec = tppnet.FilterSpec
	// ExecOpts tunes the TPP executor.
	ExecOpts = tppnet.ExecOpts
	// Packet is an in-flight simulated packet.
	Packet = tppnet.Packet
	// NodeID addresses a host or switch.
	NodeID = tppnet.NodeID
	// LinkConfig parameterizes one link.
	LinkConfig = tppnet.LinkConfig
	// Time is virtual simulation time in nanoseconds.
	Time = tppnet.Time
	// SyncStats are the sharded engine's synchronization counters.
	SyncStats = tppnet.SyncStats
	// UDPFlow is a rate-limited CBR sender.
	UDPFlow = tppnet.UDPFlow
	// TCPFlow is the TCP-like AIMD transport.
	TCPFlow = tppnet.TCPFlow
	// Sink counts received traffic.
	Sink = tppnet.Sink
)

// Time units.
const (
	Microsecond = tppnet.Microsecond
	Millisecond = tppnet.Millisecond
	Second      = tppnet.Second
)

// SimOpts bundles the simulation-substrate options every runner shares:
// the deterministic seed, the topology shard count, and an optional fault
// plan. The zero value means seed 0, single shard, no faults. Shards never
// changes simulated behavior — the determinism guard tests pin
// byte-identical results across shard counts — only wall-clock performance.
// Faults DOES change simulated behavior, deterministically: the plan
// carries its own seed.
type SimOpts struct {
	Seed   int64
	Shards int // topology shards simulated in parallel (default 1)
	// Faults, when non-nil, arms the deterministic fault plan on the
	// network (link flaps, loss, corruption, jitter, switch halts); see
	// tppnet.WithFaults and testbed.RunChaos.
	Faults *tppnet.FaultPlan
}

// NewNet creates an empty network from the bundled options — the single
// constructor behind every runner.
func NewNet(o SimOpts) *Network {
	return tppnet.NewNetwork(
		tppnet.WithSeed(o.Seed),
		tppnet.WithShards(o.Shards),
		tppnet.WithFaults(o.Faults),
	)
}
