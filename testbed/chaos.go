package testbed

// Chaos harness: the fault-injection counterpart of the figure runners. A
// chaos run drives a k=4 fat-tree with the paper's two control loops — RCP*
// rate control (§2.2) and CONGA* load balancing (§2.4) — while a
// deterministic fault plan flaps links, halts a core switch, and degrades
// the fabric with loss, jitter and TPP corruption. It then measures what the
// paper's architecture claims: the end-host control loops notice (missed
// collect rounds, probe-timeout streaks), adapt (rate decay, dead-path
// reroute), and recover once the network heals.
//
// RunChaos also enforces the fault plane's own invariants — no leaked pool
// packets after a run full of mid-flight drops, and full recovery of the
// RCP* aggregate within a bounded number of control epochs — so the chaos
// test doubles as the integration proof that terminal-drop ownership and
// horizon-bounded fault schedules compose.

import (
	"fmt"
	"strings"
	"sync/atomic"

	"minions/apps/conga"
	"minions/apps/rcp"
	"minions/tppnet"
	"minions/tppnet/faults"
	"minions/workload"
)

// Chaos timeline (virtual time). The plan's horizon doubles as the restore
// instant: every scripted and stochastic outage is over by then, so the
// recovery measurement starts from a healing — not healed — network.
const (
	chaosFault   = 300 * Millisecond // scripted agg→core uplink down
	chaosHalt    = 350 * Millisecond // scripted core switch halt
	chaosRestore = 600 * Millisecond // horizon: everything healed
)

// chaosRecoveryEpochs bounds how many RCP* control periods (10 ms) after
// the restore instant the aggregate rate may take to regain 90% of its
// pre-fault baseline. Exceeding it is an error: the system failed to
// recover.
const chaosRecoveryEpochs = 60

// ChaosConfig parameterizes RunChaos. The zero value is the standard
// scenario: seed 1, single shard.
type ChaosConfig struct {
	Seed   int64
	Shards int
	// Workload optionally layers a background workload.Spec over the
	// chaos scenario's control loops — how RCP*/CONGA* recovery behaves
	// when the fabric also carries heavy-tailed or incast traffic. The
	// Spec attaches to every fat-tree host (pod-major order); a zero
	// Spec.Seed inherits Seed+17. The runner is stopped with the other
	// sources before the final drain, so the pool-leak invariant still
	// holds, and its counters append to the result fingerprint.
	Workload *workload.Spec
}

// ChaosResult is one chaos run's measurement.
type ChaosResult struct {
	Hosts, Switches, Links int
	Shards                 int

	// BaselineMbps is the RCP* aggregate sending rate just before the first
	// scripted fault; FloorMbps the lowest aggregate observed during the
	// outage; RecoveredMbps the aggregate when recovery was declared.
	BaselineMbps  float64
	FloorMbps     float64
	RecoveredMbps float64
	// RecoveryEpochs is the number of 10 ms control epochs after the
	// restore instant until the aggregate regained 90% of baseline
	// (0 = never lost it).
	RecoveryEpochs int

	// Fault-plane activity over the run.
	Faults faults.Counts

	// Control-plane failure handling: CONGA* dead-path declarations and
	// revivals, the virtual time from the core-switch halt to the first
	// dead declaration, RCP* missed collect rounds and rate decays, and
	// executor give-ups across every host.
	CongaDeaths   uint64
	CongaRevives  uint64
	CongaDetect   Time
	RCPMissed     uint64
	RCPDecays     uint64
	ExecFailures  uint64
	DeliveredPkts uint64

	Events          int
	PoolOutstanding int64 // leaked pool packets after the drain (must be 0)

	// WorkloadFP is the background workload.Runner's deterministic counter
	// line when ChaosConfig.Workload was set (empty otherwise).
	WorkloadFP string
}

// Fingerprint renders every simulated-behavior field — the string two runs
// with the same seed must agree on byte-for-byte, regardless of shard
// count. Events is not one: it is a host-cost proxy that
// moves with the shard count (boundary links run one more event a packet).
func (r *ChaosResult) Fingerprint() string {
	fp := fmt.Sprintf(
		"base=%.6f floor=%.6f rec=%.6f epochs=%d faults=%+v deaths=%d revives=%d detect=%d missed=%d decays=%d execfail=%d delivered=%d leaked=%d",
		r.BaselineMbps, r.FloorMbps, r.RecoveredMbps, r.RecoveryEpochs,
		r.Faults, r.CongaDeaths, r.CongaRevives, int64(r.CongaDetect),
		r.RCPMissed, r.RCPDecays, r.ExecFailures, r.DeliveredPkts,
		r.PoolOutstanding)
	if r.WorkloadFP != "" {
		fp += " wl{" + r.WorkloadFP + "}"
	}
	return fp
}

// Table renders the result for humans.
func (r *ChaosResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos fat-tree k=4 (%d shards): %d hosts, %d switches, %d links\n",
		r.Shards, r.Hosts, r.Switches, r.Links)
	fmt.Fprintf(&b, "faults: %d/%d link down/up, %d/%d halt/restart, %d losses, %d corruptions, %d stalls, %d bursts\n",
		r.Faults.LinkDowns, r.Faults.LinkUps, r.Faults.Halts, r.Faults.Restarts,
		r.Faults.Losses, r.Faults.Corruptions, r.Faults.Stalls, r.Faults.BurstStarts)
	fmt.Fprintf(&b, "rcp: %.1f -> %.1f -> %.1f Mb/s (baseline/floor/recovered), recovered in %d epochs, %d missed rounds, %d decays\n",
		r.BaselineMbps, r.FloorMbps, r.RecoveredMbps, r.RecoveryEpochs, r.RCPMissed, r.RCPDecays)
	fmt.Fprintf(&b, "conga: %d path deaths, %d revives, first death %.2f ms after halt; %d exec give-ups; %d pkts delivered; %d leaked\n",
		r.CongaDeaths, r.CongaRevives, r.CongaDetect.Seconds()*1e3,
		r.ExecFailures, r.DeliveredPkts, r.PoolOutstanding)
	return b.String()
}

// chaosPlan builds the deterministic fault plan for the standard scenario on
// an already-wired fat-tree: a scripted both-directions down/up of pod 0's
// first agg→core uplink, a scripted halt/restart of the last core switch,
// random flapping of pod 3's first agg→core uplink, and mild fabric-wide
// loss (with Gilbert-Elliott bursts), TPP corruption and jitter — all over
// by the horizon.
func chaosPlan(n *Network, seed int64) (*tppnet.FaultPlan, error) {
	// Fat-tree creation order (k=4): switches 0-3 are cores, then per pod
	// [agg0, edge0, agg1, edge1]; see topo.FatTree. The script's switch
	// index 3 below is the last core.
	core0 := n.Switches[0]
	aggPod0, aggPod3 := n.Switches[4], n.Switches[4+3*4]
	scriptFwd := findLink(n, aggPod0.NodeID(), core0.NodeID())
	scriptRev := findLink(n, core0.NodeID(), aggPod0.NodeID())
	flapFwd := findLink(n, aggPod3.NodeID(), core0.NodeID())
	flapRev := findLink(n, core0.NodeID(), aggPod3.NodeID())
	if scriptFwd < 0 || scriptRev < 0 || flapFwd < 0 || flapRev < 0 {
		return nil, fmt.Errorf("testbed: chaos fat-tree is missing an agg→core uplink")
	}
	return &tppnet.FaultPlan{
		Seed:    seed,
		Horizon: chaosRestore,
		Flap: &faults.FlapSpec{
			MTTF: 60 * Millisecond, MTTR: 10 * Millisecond,
			Links: []int{flapFwd, flapRev},
		},
		Loss: &faults.LossSpec{
			Rate: 0.001, GoodToBad: 0.0005, BadToGood: 0.05, BadRate: 0.2,
		},
		Corrupt: &faults.CorruptSpec{Rate: 0.002},
		Jitter:  &faults.JitterSpec{Rate: 0.02, Max: 20 * Microsecond},
		Script: []faults.Event{
			{At: chaosFault, Kind: faults.LinkDown, Link: scriptFwd, Switch: -1},
			{At: chaosFault, Kind: faults.LinkDown, Link: scriptRev, Switch: -1},
			{At: chaosHalt, Kind: faults.SwitchHalt, Link: -1, Switch: 3},
			{At: chaosRestore, Kind: faults.LinkUp, Link: scriptFwd, Switch: -1},
			{At: chaosRestore, Kind: faults.LinkUp, Link: scriptRev, Switch: -1},
			{At: chaosRestore, Kind: faults.SwitchRestart, Link: -1, Switch: 3},
		},
	}, nil
}

// findLink returns the creation-order index of the directed link src→dst,
// -1 if absent.
func findLink(n *Network, src, dst NodeID) int {
	for i := range n.Links() {
		if e := n.LinkEndsOf(i); e.Src == src && e.Dst == dst {
			return i
		}
	}
	return -1
}

// RunChaos runs the standard chaos scenario: a k=4 fat-tree at 100 Mb/s
// carrying four RCP*-controlled flows (pod 0 → pod 3) and a CONGA*-balanced
// flow group (pod 1 → pod 2) through the chaosPlan fault schedule. It
// returns an error if the system violates a resilience invariant: leaked
// pool packets after the drain, or an RCP* aggregate that fails to regain
// 90% of its pre-fault baseline within chaosRecoveryEpochs control epochs
// of the restore instant.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}

	// Build the topology first: the plan needs link indices, so it is wired
	// into the network after the fact via a second NewNet — instead, build
	// once and arm through SimOpts by constructing the plan from a throwaway
	// twin topology. The twin is cheap (no traffic) and keeps NewNet the
	// single constructor path.
	twin := NewNet(SimOpts{Seed: cfg.Seed, Shards: cfg.Shards})
	twin.FatTree(4, 100)
	plan, err := chaosPlan(twin, cfg.Seed)
	if err != nil {
		return nil, err
	}

	net := NewNet(SimOpts{Seed: cfg.Seed, Shards: cfg.Shards, Faults: plan})
	pods := net.FatTree(4, 100)

	res := &ChaosResult{
		Shards:   cfg.Shards,
		Switches: len(net.Switches),
		Links:    len(net.Links()),
	}
	for _, p := range pods {
		res.Hosts += len(p)
	}

	// Executor give-ups, from every host: counted with an atomic because
	// each host publishes on its own shard's goroutine.
	var execFails atomic.Uint64
	for _, h := range net.Hosts {
		h.ExecFailures().Subscribe(func(tppnet.ExecFailure) { execFails.Add(1) })
	}

	// RCP*: four rate-controlled flows pod 0 → pod 3, crossing the core.
	sys := rcp.New(rcp.Config{CapacityMbps: 100, Hops: 6})
	if err := sys.Attach(net, nil); err != nil {
		return nil, err
	}
	var sinks []*Sink
	for i := 0; i < 4; i++ {
		src, dst := pods[0][i], pods[3][i]
		port := uint16(7001 + i)
		sinks = append(sinks, tppnet.NewSink(dst, port, tppnet.ProtoUDP))
		udp := tppnet.NewUDPFlow(src, dst.ID(), port, port, 1500)
		sys.NewFlow(src, dst.ID(), udp)
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}

	// CONGA*: one balanced flow group pod 1 → pod 2, four subflows whose
	// flowlets spread across the four core paths.
	bal := conga.New(conga.Config{Host: pods[1][0], Dst: pods[2][0].ID(), Agg: conga.AggMax, Hops: 6})
	if err := bal.Attach(net, nil); err != nil {
		return nil, err
	}
	var firstDeath atomic.Int64
	firstDeath.Store(-1)
	bal.Paths().Subscribe(func(s conga.PathSample) {
		if s.Dead && firstDeath.Load() < 0 {
			firstDeath.Store(int64(s.At))
		}
	})
	if err := bal.Start(); err != nil {
		return nil, err
	}
	tagger := bal.Tagger()
	sinks = append(sinks, tppnet.NewSink(pods[2][0], 7500, tppnet.ProtoUDP))
	var subs []*UDPFlow
	for i := 0; i < 4; i++ {
		f := tppnet.NewUDPFlow(pods[1][0], pods[2][0].ID(), uint16(7510+i), 7500, 1500)
		f.SetRateBps(15_000_000)
		f.Tagger = tagger
		f.Start()
		subs = append(subs, f)
	}

	// Optional background workload under the control loops.
	var wr *workload.Runner
	if cfg.Workload != nil {
		spec := *cfg.Workload
		if spec.Seed == 0 {
			spec.Seed = cfg.Seed + 17
		}
		var hostsAll []*Host
		for _, p := range pods {
			hostsAll = append(hostsAll, p...)
		}
		if wr, err = spec.Attach(hostsAll); err != nil {
			return nil, err
		}
	}

	agg := func() float64 {
		var sum float64
		for _, f := range sys.Flows() {
			sum += f.RateMbps()
		}
		return sum
	}

	// Phase 1 — converge, then baseline at the first scripted fault.
	events := net.RunUntil(chaosFault)
	res.BaselineMbps = agg()

	// Phase 2 — outage: step by the control period, tracking the floor.
	const epoch = 10 * Millisecond
	res.FloorMbps = res.BaselineMbps
	for at := chaosFault + epoch; at <= chaosRestore; at += epoch {
		events += net.RunUntil(at)
		if r := agg(); r < res.FloorMbps {
			res.FloorMbps = r
		}
	}

	// Phase 3 — recovery: epochs until the aggregate regains 90% of
	// baseline. Epoch 0 means the outage never cost 10%.
	target := 0.9 * res.BaselineMbps
	res.RecoveryEpochs = -1
	for e := 0; e <= chaosRecoveryEpochs; e++ {
		if e > 0 {
			events += net.RunUntil(chaosRestore + Time(e)*epoch)
		}
		if r := agg(); r >= target {
			res.RecoveryEpochs, res.RecoveredMbps = e, r
			break
		}
	}

	// Drain: stop every traffic source and run the simulation dry so the
	// pool-ownership invariant is checkable — every packet the fault plane
	// dropped mid-flight must have been released exactly once.
	if err := sys.Stop(); err != nil {
		return nil, err
	}
	if err := bal.Stop(); err != nil {
		return nil, err
	}
	for _, f := range subs {
		f.Stop()
	}
	if wr != nil {
		wr.Stop()
	}
	events += net.Run()
	res.Events = events
	if wr != nil {
		res.WorkloadFP = wr.Fingerprint()
	}

	res.Faults = net.Faults().Counts()
	res.CongaDeaths = bal.PathDeaths
	res.CongaRevives = bal.PathRevives
	if at := firstDeath.Load(); at >= 0 {
		res.CongaDetect = Time(at) - chaosHalt
	}
	for _, f := range sys.Flows() {
		res.RCPMissed += f.MissedRoundsTotal
		res.RCPDecays += f.Decays
	}
	res.ExecFailures = execFails.Load()
	for _, s := range sinks {
		res.DeliveredPkts += s.Packets
	}
	res.PoolOutstanding = net.PoolOutstanding()

	if res.PoolOutstanding != 0 {
		return res, fmt.Errorf("testbed: chaos run leaked %d pool packets", res.PoolOutstanding)
	}
	if res.RecoveryEpochs < 0 {
		return res, fmt.Errorf("testbed: RCP* aggregate %.1f Mb/s never regained 90%% of the %.1f Mb/s baseline within %d epochs of restore",
			agg(), res.BaselineMbps, chaosRecoveryEpochs)
	}
	return res, nil
}
