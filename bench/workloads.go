// Package bench is the repository's benchmark: eight fixed-work workloads,
// three end-to-end metrics, a per-layer packet-hop ledger and a traced run.
// See README.md in this directory for the protocol; BENCHMARK.json at the
// repository root declares every metric name this package emits.
//
// Scenarios are built on the stable public surface only (tpp, tppnet,
// tppnet/faults, apps/*, workload, telemetry and telemetry/trace), and the
// canned traffic specs are re-declared here, so the benchmark's inputs are
// frozen with it. The layer drivers (drivers.go) additionally enter each
// layer package through its own public entry points.
package bench

import (
	"fmt"

	"minions/tpp"
	"minions/tppnet"
	"minions/workload"
)

// NominalSeconds is the run length the window sizes below are calibrated
// for: on the reference box (2 vCPU) a workload's measured window takes
// between 2.5 and 5 s. Other -seconds values scale the simulated window
// linearly — the window is always a fixed amount of simulated work, never
// a wall-time budget, so two commits compared at the same -seconds do
// identical work.
const NominalSeconds = 3

// program selects the TPP a workload attaches to every UDP data packet.
type program uint8

const (
	progNone program = iota
	// progTelemetry is the paper's §2.1 read-only pair:
	// PUSH [Switch:SwitchID]; PUSH [Queue:QueueOccupancy], 6-hop memory.
	progTelemetry
	// progRW5 is a five-instruction (the paper's maximum) read-and-write
	// program: three PUSHes of link statistics, a STORE and a CSTORE into
	// two CP-allocated, write-granted Link:AppSpecific registers — the
	// shape of an RCP* update.
	progRW5
)

// Workload is one set of benchmark inputs. Every workload is a closed
// system: all traffic is generated inside the simulation from the seed.
type Workload struct {
	Name string
	// Why records why the workload exists: which layers do the work and
	// which optimisations it exercises or bypasses.
	Why string

	K        int // fat-tree arity
	RateMbps int // link rate
	Shards   int // topology shards (1 = one engine)
	Flows    int // uniform-random CBR flows at 20 Mb/s, 1400 B (0 = none)
	Mix      bool
	Prog     program
	Export   bool // telemetry pipeline + trace capture
	Chaos    bool // apps-chaos: one fresh fabric per seed, ChaosSeeds seeds

	// Warmup and Window are simulated durations at NominalSeconds.
	Warmup, Window tppnet.Time
	// ChaosSeeds is the number of consecutive seeds at NominalSeconds.
	ChaosSeeds int
}

// Workloads is the benchmark's workload table, in report order.
var Workloads = []Workload{
	{
		Name: "cbr-plain",
		Why:  "bare forwarding, no TPP: sim+link+device do nearly all the work; bypass workload for TCPU, shim and export changes",
		K:    4, RateMbps: 1000, Shards: 1, Flows: 128,
		Warmup: 100 * tppnet.Millisecond, Window: 10 * tppnet.Second,
	},
	{
		Name: "cbr-tpp",
		Why:  "the paper's read-only SwitchID+QueueOccupancy pair on every packet: core, device TCPU dispatch and host attach/strip",
		K:    4, RateMbps: 1000, Shards: 1, Flows: 128, Prog: progTelemetry,
		Warmup: 100 * tppnet.Millisecond, Window: 10 * tppnet.Second,
	},
	{
		Name: "cbr-tpp5-rw",
		Why:  "longest legal program (5 insns) that reads and writes: write-policy check and STORE/CSTORE path beside the read path",
		K:    4, RateMbps: 1000, Shards: 1, Flows: 128, Prog: progRW5,
		Warmup: 100 * tppnet.Millisecond, Window: 10 * tppnet.Second,
	},
	{
		Name: "dcmix",
		Why:  "heavy-tail messages plus incast: deep queues, event bursts, drops, pool growth; workload generators and link queues do most",
		K:    4, RateMbps: 1000, Shards: 1, Mix: true, Prog: progTelemetry,
		Warmup: 1 * tppnet.Second, Window: 8 * tppnet.Second,
	},
	{
		Name: "fabric-k16",
		Why:  "k=16 fabric, 1024 flows: working set far beyond cache; topo set-up, live heap, route lookup and memory layout show here",
		K:    16, RateMbps: 1000, Shards: 1, Flows: 1024, Prog: progTelemetry,
		Warmup: 20 * tppnet.Millisecond, Window: 400 * tppnet.Millisecond,
	},
	{
		Name: "fabric-k16-shards2",
		Why:  "same inputs on 2 shards: shard sync and boundary links work here only; digest must equal fabric-k16",
		K:    16, RateMbps: 1000, Shards: 2, Flows: 1024, Prog: progTelemetry,
		Warmup: 20 * tppnet.Millisecond, Window: 400 * tppnet.Millisecond,
	},
	{
		Name: "export",
		Why:  "cbr-tpp plus a telemetry pipeline record per hop sample and a packet trace capture: prices the observability plane",
		K:    4, RateMbps: 1000, Shards: 1, Flows: 128, Prog: progTelemetry, Export: true,
		Warmup: 100 * tppnet.Millisecond, Window: 8 * tppnet.Second,
	},
	{
		Name: "apps-chaos",
		Why:  "RCP* and CONGA* control loops under a fault plan, one fabric per seed: apps, host executor, faults and control plane dominate",
		K:    4, RateMbps: 100, Shards: 1, Chaos: true, ChaosSeeds: 128,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// CBR parameters shared by every Flows workload.
const (
	cbrRateBps = 20_000_000
	cbrPktSize = 1400 // leaves TPP headroom under the 1514-byte MTU
	cbrPort    = 9100
	tppHops    = 6 // longest fat-tree path is 5 switch hops; one spare
	// mixPktSize is dcmix's payload per packet: with 54 B of framing and the
	// 68 B telemetry TPP a full packet is exactly the 1514 B MTU, so every
	// packet is instrumented (the default 1440 B payload would be sent bare).
	mixPktSize = 1392
)

// spec returns the workload's traffic, re-declared here (not imported from
// testbed) so the inputs cannot drift under the benchmark.
func (w *Workload) spec(seed int64) workload.Spec {
	if w.Mix {
		return dcmixSpec(w.K, seed)
	}
	return workload.Spec{Seed: seed, Groups: []workload.Group{{
		Name: "cbr",
		Flows: &workload.FlowSpec{
			Flows: w.Flows, RateBps: cbrRateBps, PktSize: cbrPktSize, DstPort: cbrPort,
		},
	}}}
}

// dcmixSpec is one Spec with two groups: heavy-tail messages (90%
// web-search mice clamped 0.5–100 kB sent as bursts, 10% data-mining
// elephants paced at 200 Mb/s, offered load 0.3) and partition-aggregate
// incast (first host of every pod aggregates, fan-in one pod's worth of
// workers, 20 kB responses every 2 ms with 500 µs jitter).
func dcmixSpec(k int, seed int64) workload.Spec {
	hostsPerPod := (k / 2) * (k / 2)
	aggs := make([]int, k)
	for i := range aggs {
		aggs[i] = i * hostsPerPod
	}
	return workload.Spec{Seed: seed, Groups: []workload.Group{
		{
			Name: "heavy-tail",
			Messages: &workload.MessageSpec{
				Classes: []workload.Class{
					{Name: "mice", Weight: 0.9,
						Sizes: workload.WebSearch().Clamped(500, 100_000)},
					{Name: "elephants", Weight: 0.1,
						Sizes:   workload.DataMining().Clamped(500_000, 20_000_000),
						RateBps: 200_000_000},
				},
				Load:    0.3,
				PktSize: mixPktSize,
			},
		},
		{
			Name: "incast",
			Incast: &workload.IncastSpec{
				Aggregators:   aggs,
				FanIn:         hostsPerPod,
				RequestBytes:  64,
				ResponseBytes: 20_000,
				Period:        2 * tppnet.Millisecond,
				Jitter:        500 * tppnet.Microsecond,
				PktSize:       mixPktSize,
			},
		},
	}}
}

// tppShape describes how hop records are laid out in a program's packet
// memory, so the aggregator can count them without copying.
type tppShape struct {
	prog   *tpp.Program
	enc    tpp.Section
	insns  int
	spBase int // stack pointer before the first hop
	perHop int // words pushed per hop
}

// buildProgram builds the workload's TPP. progRW5 needs two per-link
// AppSpecific registers, allocated and write-granted to app by the CP.
func buildProgram(p program, cp *tppnet.ControlPlane, app *tppnet.App) (*tppShape, error) {
	var (
		prog *tpp.Program
		err  error
		sh   = &tppShape{}
	)
	switch p {
	case progNone:
		return nil, nil
	case progTelemetry:
		sh.perHop = 2
		prog, err = tpp.NewProgram().
			Push(tpp.SwitchID).
			Push(tpp.QueueOccupancy).
			Hops(tppHops).
			Build()
	case progRW5:
		idx, aerr := cp.AllocLinkRegisters(app, 2)
		if aerr != nil {
			return nil, aerr
		}
		version := tpp.AppSpecific0 + tpp.Addr(idx)
		rate := version + 1
		// Words 0 and 1 are the STORE source and the CSTORE operand (old
		// and new are the same word, so the compare-and-swap always
		// succeeds and re-writes the version); hop records stack above.
		sh.perHop, sh.spBase = 3, 2
		prog, err = tpp.NewProgram().
			Push(tpp.LinkTXBytes).
			Push(tpp.LinkTXUtilization).
			Push(tpp.LinkQueuedBytes).
			Store(rate, tpp.At(0)).
			CStore(version, tpp.At(1), tpp.At(1)).
			StartHop(sh.spBase).
			Mem(sh.spBase+sh.perHop*tppHops).
			Init(1000, 0).
			Build()
	}
	if err != nil {
		return nil, err
	}
	prog.AppID = app.Wire // what Host.AddTPP stamps; the drivers encode without it
	sh.prog = prog
	sh.insns = len(prog.Insns)
	if sh.enc, err = prog.Encode(); err != nil {
		return nil, err
	}
	return sh, nil
}
