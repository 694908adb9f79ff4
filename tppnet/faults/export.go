package faults

import (
	"minions/telemetry"
	"minions/tppnet"
)

// Export bridges an armed injector's fault events into a telemetry
// pipeline as canonical records: App "faults", Kind the event kind string
// ("link-down", "burst-start", ...), Node the affected switch (0 for link
// events), Aux[0] the link index +1 (0 when n/a) and Aux[1] the switch
// index +1. It returns the subscription's cancel function.
//
// Subscribe before the first Run (via net.ArmFaults) and only on
// single-shard networks — multi-shard runs publish fault events from every
// shard goroutine, and their interleaving is not deterministic.
func Export(inj *tppnet.FaultInjector, pipe *telemetry.Pipeline) (cancel func()) {
	return inj.Events().Subscribe(func(ev Event) {
		if !pipe.Active() {
			return
		}
		pipe.Publish(telemetry.Record{
			At:   int64(ev.At),
			App:  "faults",
			Kind: ev.Kind.String(),
			Node: uint64(ev.Node),
			Aux:  [3]uint64{uint64(ev.Link + 1), uint64(ev.Switch + 1), 0},
		})
	})
}

// ExportDrops bridges every switch-local packet drop into the pipeline as
// App "faults", Kind "drop" records: Node the dropping switch's address,
// Val the packet size in bytes, Aux[0] the numeric tppnet.DropReason and
// Note its name ("fault-loss", "switch-halted", ...), so collectors — and
// cmd/tppdump -stats — can break losses down per reason without knowing
// the enum. It is one telemetry.Export per switch's DropEvents; cancel
// ends them all.
//
// Like Export, use it on single-shard networks only: multi-shard runs drop
// packets from every shard goroutine concurrently.
func ExportDrops(n *tppnet.Network, pipe *telemetry.Pipeline) (cancel func()) {
	cancels := make([]func(), len(n.Switches))
	for i, sw := range n.Switches {
		node := uint64(sw.NodeID())
		cancels[i] = telemetry.Export(sw.DropEvents(), pipe, func(ev tppnet.DropEvent) telemetry.Record {
			return telemetry.Record{
				At:   int64(n.Now()),
				App:  "faults",
				Kind: "drop",
				Node: node,
				Val:  float64(ev.Packet.Size),
				Aux:  [3]uint64{uint64(ev.Reason), 0, 0},
				Note: ev.Reason.String(),
			}
		})
	}
	return func() {
		for _, c := range cancels {
			c()
		}
	}
}
