package testbed

// This file is the scale-proof harness: fat-tree topologies far larger than
// the paper's dumbbell, driven by many concurrent flows. RunScaleFatTree is a
// deterministic runner — it returns the network's counters and the heap
// allocations of the measured window, never wall-clock time. Timing the same
// runs is the job of bench/ (tppbench), the repository's one stopwatch; the
// golden, determinism and zero-allocation tests in this package hold the
// counters.

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"minions/internal/link"
	"minions/telemetry"
	"minions/tpp"
	"minions/tppnet"
	"minions/workload"
)

// The fabric and the default traffic are fixed: 1 Gb/s links, and per flow
// 20 Mb/s of CBR in 1400-byte packets — room under the 1514-byte MTU for the
// telemetry TPP; a full 1500-byte frame would be sent uninstrumented (§8 MTU
// issues).
const (
	scaleLinkMbps = 1000
	scaleFlowMbps = 20
	scalePktSize  = 1400
)

// ScaleConfig parameterizes a fat-tree scale run.
type ScaleConfig struct {
	K        int   // fat-tree arity, even (default 4)
	Flows    int   // concurrent CBR flows (default 128)
	Duration Time  // measured simulated time (default 100 ms)
	Warmup   Time  // simulated warmup before measuring (default 20 ms)
	Seed     int64 // default 1
	WithTPP  bool  // attach a 2-word/hop telemetry TPP to every data packet
	Shards   int   // topology shards simulated in parallel (default 1)
	// Workload, when non-nil, replaces the default uniform-random CBR
	// flows: the Spec is compiled onto the fat-tree's hosts (pod-major
	// order — the order FatTree returns them) and Flows is ignored. A
	// zero Spec.Seed inherits cfg.Seed. With WithTPP, every UDP packet is
	// instrumented (workload groups use several ports).
	// The runner's deterministic counters land in
	// ScaleResult.WorkloadFingerprint.
	Workload *workload.Spec
	// Export, when non-nil, publishes one telemetry Record per collected
	// TPP hop sample into the pipeline (App "scale", Kind "hop", Node the
	// switch ID, Val the queue occupancy, Aux the hop index and flow
	// endpoints). Requires WithTPP and a single shard — the pipeline is
	// single-goroutine and aggregators run on shard goroutines. The
	// pipeline is flushed once after the measured window; inline flushes
	// triggered by a full spool under the Block policy land inside the
	// window, so their allocations are counted.
	Export *telemetry.Pipeline
}

// ScaleResult is one fat-tree scale measurement. Traffic counters cover the
// measured window only (warmup excluded).
type ScaleResult struct {
	K, Hosts, Switches, Links, Flows int
	Shards                           int

	SimDuration   Time
	Events        int    // engine events processed
	PktHops       uint64 // link transmissions (host->switch and switch->*)
	Delivered     uint64 // packets counted by sinks
	DeliveredMB   float64
	Drops         uint64 // drop-tail losses
	TPPHopRecords uint64 // per-hop telemetry records collected (WithTPP)

	Mallocs uint64 // heap allocations during the window

	// Sharded-sync counters for the measured window (both zero at one
	// shard). SyncPoints — group-wide synchronization points entered — and
	// SyncCrossings — shard-crossing deliveries drained — are deterministic
	// for a given (seed, shards). (The counters that move with goroutine
	// interleaving — mailbox sweeps, idle parks — are tppbench's
	// sim.shard_* rows.)
	SyncPoints    uint64
	SyncCrossings uint64

	// WorkloadFingerprint is the workload.Runner's deterministic counter
	// line when ScaleConfig.Workload drove the run (empty otherwise) —
	// the cross-shard determinism guards compare it.
	WorkloadFingerprint string
}

// AllocsPerPktHop returns heap allocations per packet-hop in the measured
// window: 0 in single-shard steady state (TestScaleRunsZeroAllocs).
func (r *ScaleResult) AllocsPerPktHop() float64 {
	if r.PktHops == 0 {
		return 0
	}
	return float64(r.Mallocs) / float64(r.PktHops)
}

// Table renders the result.
func (r *ScaleResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fat-tree k=%d (%d shards): %d hosts, %d switches, %d links, %d flows, TPP records %d\n",
		r.K, r.Shards, r.Hosts, r.Switches, r.Links, r.Flows, r.TPPHopRecords)
	fmt.Fprintf(&b, "simulated %.0f ms: %d pkt-hops, %d delivered (%.1f MB), %d drops, %d events, %d allocs (%.4f/pkt-hop)\n",
		r.SimDuration.Seconds()*1e3, r.PktHops, r.Delivered, r.DeliveredMB, r.Drops, r.Events,
		r.Mallocs, r.AllocsPerPktHop())
	if r.Shards > 1 {
		fmt.Fprintf(&b, "sync: %d sync points, %d crossings\n", r.SyncPoints, r.SyncCrossings)
	}
	return b.String()
}

// scaleTelemetryProgram is the per-hop collection TPP the scale workload
// piggybacks: switch ID + queue occupancy, the §2.1 micro-burst pair.
func scaleTelemetryProgram(hops int) (*tpp.Program, error) {
	return tpp.NewProgram().
		Push(tpp.SwitchID).
		Push(tpp.QueueOccupancy).
		Hops(hops).
		Build()
}

// RunScaleFatTree builds a k-ary fat-tree, drives it with cfg.Flows
// concurrent CBR flows (optionally TPP-instrumented), and counts what the
// network did — and what the simulator allocated — over cfg.Duration of
// virtual time.
func RunScaleFatTree(cfg ScaleConfig) (*ScaleResult, error) {
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.K%2 != 0 {
		return nil, fmt.Errorf("testbed: fat-tree arity %d must be even", cfg.K)
	}
	if cfg.Flows == 0 {
		cfg.Flows = 128
	}
	if cfg.Duration == 0 {
		cfg.Duration = 100 * Millisecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 20 * Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	// The pod-aligned partition caps useful shards at k (one pod is the
	// smallest indivisible unit); clamp here so ScaleResult.Shards reports
	// what actually ran instead of idle engines.
	if cfg.Shards > cfg.K {
		cfg.Shards = cfg.K
	}
	if cfg.Export != nil {
		if !cfg.WithTPP {
			return nil, fmt.Errorf("testbed: ScaleConfig.Export requires WithTPP (no hop records without the telemetry TPP)")
		}
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("testbed: ScaleConfig.Export requires a single shard (the pipeline is single-goroutine)")
		}
	}

	net := NewNet(SimOpts{Seed: cfg.Seed, Shards: cfg.Shards})
	pods := net.FatTree(cfg.K, scaleLinkMbps)
	var hosts []*Host
	for _, pod := range pods {
		hosts = append(hosts, pod...)
	}

	res := &ScaleResult{
		K:           cfg.K,
		Shards:      cfg.Shards,
		Hosts:       len(hosts),
		Switches:    len(net.Switches),
		Links:       len(net.Links()),
		Flows:       cfg.Flows,
		SimDuration: cfg.Duration,
	}

	const dstPort = 9100
	// The default workload sends everything to one well-known port; a
	// workload.Spec spreads groups across ports, so instrument all UDP.
	filter := FilterSpec{Proto: tppnet.ProtoUDP, DstPort: dstPort}
	if cfg.Workload != nil {
		filter = FilterSpec{Proto: tppnet.ProtoUDP}
	}
	// Aggregators run on every shard's goroutine; the hop-record tally is an
	// atomic because additions commute — the sum is deterministic no matter
	// how shard execution interleaves.
	var hopRecords atomic.Uint64
	tppEncLen := 0
	if cfg.WithTPP {
		// Longest fat-tree path is edge-agg-core-agg-edge = 5 switch hops;
		// size one extra so resized topologies don't silently truncate.
		prog, err := scaleTelemetryProgram(6)
		if err != nil {
			return nil, err
		}
		if enc, err := prog.Encode(); err == nil {
			tppEncLen = len(enc)
		}
		app := net.CP.RegisterApp("scale-telemetry")
		pipe := cfg.Export
		for _, h := range hosts {
			if _, err := h.AddTPP(app, filter, prog, 1, 0); err != nil {
				return nil, err
			}
			// Consume views without copying: count collected hop records,
			// and when exporting, publish one Record per hop straight off
			// the section words (HopViews/StackView would allocate).
			host := h
			h.RegisterAggregator(app.Wire, func(p *Packet, view tpp.Section) {
				words := view.HopOrSP()
				if max := view.MemWords(); words > max {
					words = max
				}
				hopRecords.Add(uint64(words) / 2)
				if pipe == nil {
					return
				}
				now := int64(host.Engine().Now())
				for w := 0; w+1 < words; w += 2 {
					pipe.Publish(telemetry.Record{
						At:   now,
						App:  "scale",
						Kind: "hop",
						Node: uint64(view.Word(w)),
						Val:  float64(view.Word(w + 1)),
						Aux:  [3]uint64{uint64(w / 2), uint64(p.Flow.Src), uint64(p.Flow.Dst)},
					})
				}
			})
		}
	}

	// The default workload is the canned uniform-random CBR flows; its
	// fingerprint is not reported (the golden ScaleResult counters cover it).
	spec := workload.UniformRandom(workload.UniformRandomConfig{
		Flows:   cfg.Flows,
		RateBps: scaleFlowMbps * 1_000_000,
		PktSize: scalePktSize,
		DstPort: dstPort,
		Seed:    cfg.Seed,
	})
	if cfg.Workload != nil {
		spec = *cfg.Workload
		if spec.Seed == 0 {
			spec.Seed = cfg.Seed
		}
	}
	wr, err := spec.Attach(hosts)
	if err != nil {
		return nil, err
	}
	sinks := wr.Sinks
	if cfg.Workload != nil {
		res.Flows = wr.Sources()
		// Heavy-tailed specs keep setting record queue depths long after any
		// reasonable warmup; pre-commit the growth headroom so the measured
		// window holds the zero-alloc contract (behavior is unchanged).
		net.Prewarm(0, tppEncLen)
	}

	// Warm up: fill pools, rings and the event heap so the measured window
	// reflects steady state.
	net.RunFor(cfg.Warmup)

	txBefore, dropBefore := linkTotals(net.Links())
	var sinkPktsBefore, sinkBytesBefore uint64
	for _, s := range sinks {
		sinkPktsBefore += s.Packets
		sinkBytesBefore += s.Bytes
	}
	// The aggregator accumulates from time zero; baseline it so
	// TPPHopRecords covers the measured window like every other counter.
	hopRecordsBefore := hopRecords.Load()
	var syncBefore SyncStats
	if g := net.Group(); g != nil {
		syncBefore = g.Stats()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.Events = net.RunFor(cfg.Duration)
	runtime.ReadMemStats(&m1)

	txAfter, dropAfter := linkTotals(net.Links())
	res.PktHops = txAfter - txBefore
	res.Drops = dropAfter - dropBefore
	for _, s := range sinks {
		res.Delivered += s.Packets
		res.DeliveredMB += float64(s.Bytes)
	}
	res.Delivered -= sinkPktsBefore
	res.DeliveredMB = (res.DeliveredMB - float64(sinkBytesBefore)) / 1e6
	res.TPPHopRecords = hopRecords.Load() - hopRecordsBefore
	res.Mallocs = m1.Mallocs - m0.Mallocs
	if g := net.Group(); g != nil {
		s := g.Stats()
		res.SyncPoints = s.Epochs - syncBefore.Epochs
		res.SyncCrossings = s.Crossings - syncBefore.Crossings
	}
	if cfg.Workload != nil {
		res.WorkloadFingerprint = wr.Fingerprint()
	}
	if cfg.Export != nil {
		cfg.Export.Flush()
		if err := cfg.Export.Err(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// linkTotals sums transmit and drop packet counters across links.
func linkTotals(links []*link.Link) (tx, drops uint64) {
	for _, l := range links {
		st := l.Stats()
		tx += st.TxPackets
		drops += st.DropPackets
	}
	return tx, drops
}

// E2EHarness drives the minimal forward path — host send → one switch hop
// (with or without TPP execution) → delivery — one packet at a time. It is
// the substrate of the zero-allocation steady-state assertion in the tests.
type E2EHarness struct {
	Net  *Network
	Src  *Host
	Dst  *Host
	Sink *Sink
	// HopRecords counts telemetry hop records consumed by the aggregator.
	HopRecords uint64

	dstID   NodeID
	pktSize int
}

// NewE2EHarness wires host→switch→host at 10 Gb/s; withTPP installs the
// telemetry program on the send path and a non-copying aggregator on the
// receive path.
func NewE2EHarness(withTPP bool) (*E2EHarness, error) {
	net := NewNet(SimOpts{Seed: 1})
	sw := net.AddSwitch(2)
	src, dst := net.AddHost(), net.AddHost()
	cfg := tppnet.HostLink(10_000)
	net.Connect(src, sw, cfg)
	net.Connect(dst, sw, cfg)
	net.ComputeRoutes()

	e := &E2EHarness{Net: net, Src: src, Dst: dst, dstID: dst.ID(), pktSize: 1000}
	if withTPP {
		prog, err := scaleTelemetryProgram(2)
		if err != nil {
			return nil, err
		}
		app := net.CP.RegisterApp("e2e")
		if _, err := src.AddTPP(app, FilterSpec{Proto: tppnet.ProtoUDP}, prog, 1, 0); err != nil {
			return nil, err
		}
		dst.RegisterAggregator(app.Wire, func(p *Packet, view tpp.Section) {
			e.HopRecords += uint64(view.HopOrSP()) / 2
		})
	}
	e.Sink = tppnet.NewSink(dst, 9000, tppnet.ProtoUDP)
	return e, nil
}

// Step sends one packet from Src to Dst and runs the simulation to idle:
// exactly one host transmit path, one TPP-executing switch hop, and one
// terminal delivery. In steady state it performs zero heap allocations.
func (e *E2EHarness) Step() {
	e.Src.Send(e.Src.NewPacket(e.dstID, 5000, 9000, tppnet.ProtoUDP, e.pktSize))
	e.Net.Run()
}
