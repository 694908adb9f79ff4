package testbed

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"minions/apps/microburst"
	"minions/apps/ndb"
	"minions/apps/rcp"
	"minions/apps/sketch"
	"minions/internal/core"
	"minions/internal/host"
	"minions/internal/hwmodel"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/transport"
	"minions/tppnet"
	"minions/workload"
)

// ---------------------------------------------------------------------------
// Figure 1: micro-burst detection on the 6-host dumbbell (§2.1).

// Fig1Config parameterizes the experiment; zero values take the paper's.
type Fig1Config struct {
	Hosts    int     // 6
	RateMbps int     // 100
	MsgBytes int     // 10 kB
	Load     float64 // 0.30
	Duration Time    // 2 s
	Seed     int64
	Shards   int // topology shards simulated in parallel (default 1)
}

// Fig1QueueStat summarizes one monitored queue.
type Fig1QueueStat struct {
	Queue     string
	Samples   int
	EmptyFrac float64
	P50, P90  float64
	Max       float64
}

// Fig1Result is the data behind both panels of Figure 1b.
type Fig1Result struct {
	Queues        []Fig1QueueStat
	TotalSamples  uint64
	OverheadBytes int
	// MostlyEmptyQueues counts queues empty at >50% of packet arrivals —
	// the paper's "a sampling method is likely to miss the bursts" point.
	MostlyEmptyQueues int
	// BurstQueues counts queues whose max occupancy reached >= 5 packets.
	BurstQueues int
}

// RunFig1 reproduces the §2.1 experiment.
func RunFig1(cfg Fig1Config) (*Fig1Result, error) {
	if cfg.Hosts == 0 {
		cfg.Hosts = 6
	}
	if cfg.RateMbps == 0 {
		cfg.RateMbps = 100
	}
	if cfg.MsgBytes == 0 {
		cfg.MsgBytes = 10_000
	}
	if cfg.Load == 0 {
		cfg.Load = 0.30
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * Second
	}
	n := NewNet(SimOpts{Seed: cfg.Seed + 3, Shards: cfg.Shards})
	hosts, _, _ := n.Dumbbell(cfg.Hosts, cfg.RateMbps)
	mon := microburst.New(microburst.Config{
		Filter: FilterSpec{Proto: link.ProtoUDP},
		Hosts:  hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		return nil, err
	}
	if _, err := workload.AllToAll(workload.AllToAllConfig{
		MsgBytes: cfg.MsgBytes,
		Load:     cfg.Load,
		Duration: cfg.Duration,
		Seed:     cfg.Seed + 11,
	}).Attach(hosts); err != nil {
		return nil, err
	}
	n.RunUntil(cfg.Duration + 100*Millisecond)
	return fig1Summarize(mon), nil
}

// fig1Summarize folds a microburst monitor into the Figure 1 panels; shared
// by RunFig1 and RunFig1Workload.
func fig1Summarize(mon *microburst.Monitor) *Fig1Result {
	res := &Fig1Result{TotalSamples: mon.Samples(), OverheadBytes: mon.Overhead()}
	for _, q := range mon.Queues() {
		c := mon.CDF(q)
		if c.N() < 50 {
			continue
		}
		st := Fig1QueueStat{
			Queue:     q.String(),
			Samples:   c.N(),
			EmptyFrac: mon.EmptyFraction(q),
			P50:       c.Quantile(0.5),
			P90:       c.Quantile(0.9),
			Max:       c.Max(),
		}
		res.Queues = append(res.Queues, st)
		if st.EmptyFrac > 0.5 {
			res.MostlyEmptyQueues++
		}
		if st.Max >= 5 {
			res.BurstQueues++
		}
	}
	return res
}

// Table renders the result like Figure 1b's panels.
func (r *Fig1Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — per-packet queue occupancy (%d samples, TPP adds %d B/pkt)\n",
		r.TotalSamples, r.OverheadBytes)
	fmt.Fprintf(&b, "%-10s %8s %8s %6s %6s %6s\n", "queue", "samples", "empty%", "p50", "p90", "max")
	for _, q := range r.Queues {
		fmt.Fprintf(&b, "%-10s %8d %7.1f%% %6.1f %6.1f %6.0f\n",
			q.Queue, q.Samples, q.EmptyFrac*100, q.P50, q.P90, q.Max)
	}
	fmt.Fprintf(&b, "queues mostly empty: %d; queues with bursts >=5 pkts: %d\n",
		r.MostlyEmptyQueues, r.BurstQueues)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 2: RCP* max-min vs proportional fairness (§2.2).

// Fig2Point is one flow's throughput sample.
type Fig2Point struct {
	T    float64 // seconds
	Mbps [3]float64
}

// Fig2Result holds both panels.
type Fig2Result struct {
	MaxMin       []Fig2Point
	Proportional []Fig2Point
	// FinalMaxMin and FinalProp are the steady-state rates of flows a,b,c.
	FinalMaxMin [3]float64
	FinalProp   [3]float64
}

// RunFig2 reproduces Figure 2: flows a (2 links), b, c (1 link each) at the
// given duration per panel. Results are byte-identical across shard counts
// for the same seed.
// See capture.go for the trace-captured and replayed variants.
func RunFig2(duration Time, o SimOpts) (*Fig2Result, error) {
	return runFig2(duration, o, nil, nil, nil, nil)
}

// Table renders both panels' steady states and time series.
func (r *Fig2Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 2 — RCP* fairness (flows a=2 links, b,c=1 link; 100 Mb/s links)\n")
	fmt.Fprintf(&b, "%-22s %8s %8s %8s   (paper: 50/50/50)\n", "max-min final Mb/s",
		f1(r.FinalMaxMin[0]), f1(r.FinalMaxMin[1]), f1(r.FinalMaxMin[2]))
	fmt.Fprintf(&b, "%-22s %8s %8s %8s   (paper: ~33/67/67)\n", "proportional final",
		f1(r.FinalProp[0]), f1(r.FinalProp[1]), f1(r.FinalProp[2]))
	b.WriteString("time series (t: a/b/c Mb/s), max-min | proportional\n")
	for i := range r.MaxMin {
		m, p := r.MaxMin[i], r.Proportional[i]
		fmt.Fprintf(&b, "t=%4.2fs  %5.1f/%5.1f/%5.1f | %5.1f/%5.1f/%5.1f\n",
			m.T, m.Mbps[0], m.Mbps[1], m.Mbps[2], p.Mbps[0], p.Mbps[1], p.Mbps[2])
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// ---------------------------------------------------------------------------
// §2.2 overheads: TPP control bandwidth vs TCP, for growing flow counts.

// Sec22Row is one flow-count measurement.
type Sec22Row struct {
	Flows       int
	RCPOverhead float64 // control bytes / data bytes
	TCPOverhead float64 // ack bytes / data bytes
}

// RunSec22 measures control-plane bandwidth overhead for n long-lived flows
// over one shared 100 Mb/s link, RCP* vs the TCP baseline.
func RunSec22(flowCounts []int, duration Time, seed int64) ([]Sec22Row, error) {
	var rows []Sec22Row
	for _, nf := range flowCounts {
		// RCP* run. A 2 ms control period approximates the paper's
		// once-per-RTT control packets.
		n := NewNet(SimOpts{Seed: seed + 7})
		hosts, _ := n.Chain(100)
		sys := rcp.New(rcp.Config{CapacityMbps: 100, Period: 2 * Millisecond})
		if err := sys.Attach(n, nil); err != nil {
			return nil, err
		}
		var flows []*rcp.Flow
		var sinks []*transport.Sink
		for i := 0; i < nf; i++ {
			port := uint16(7000 + i)
			sinks = append(sinks, transport.NewSink(n.Hosts[4], port, link.ProtoUDP))
			udp := transport.NewUDPFlow(n.Hosts[1], hosts[4].ID(), port, port, 1500)
			fl := sys.NewFlow(n.Hosts[1], hosts[4].ID(), udp)
			flows = append(flows, fl)
			fl.Start()
		}
		n.RunUntil(duration)
		var ctrl, data uint64
		for i, fl := range flows {
			fl.Stop()
			ctrl += fl.CtrlBytes
			data += sinks[i].Bytes
		}
		row := Sec22Row{Flows: nf}
		if data > 0 {
			row.RCPOverhead = float64(ctrl) / float64(data)
		}

		// TCP baseline.
		n2 := NewNet(SimOpts{Seed: seed + 9})
		hosts2, _ := n2.Chain(100)
		var tsinks []*transport.TCPSink
		var tdata uint64
		for i := 0; i < nf; i++ {
			port := uint16(7000 + i)
			s := transport.NewTCPSink(n2.Hosts[4], port, 2)
			tsinks = append(tsinks, s)
			f := transport.NewTCPFlow(n2.Hosts[1], hosts2[4].ID(), port, port, 1440)
			f.Start()
		}
		n2.RunUntil(duration)
		var acks uint64
		for _, s := range tsinks {
			acks += s.AckBytes
			tdata += s.Bytes
		}
		if tdata > 0 {
			row.TCPOverhead = float64(acks) / float64(tdata)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Sec22Table renders the comparison.
func Sec22Table(rows []Sec22Row) string {
	var b strings.Builder
	b.WriteString("§2.2 — control bandwidth overhead (paper: RCP* 1.0-6.0%, TCP 0.8-2.4%)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "flows", "RCP* ctrl", "TCP acks")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %11.2f%% %11.2f%%\n", r.Flows, r.RCPOverhead*100, r.TCPOverhead*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 4: CONGA* vs ECMP (§2.4).

// Fig4Cell is one scheme's outcome.
type Fig4Cell struct {
	Thr0, Thr1  float64 // achieved Mb/s for demands 50 and 120
	MaxUtilPerm float64 // max fabric link utilization, permille
	ProbeMbps   float64 // TPP probe overhead (CONGA* only)
}

// Fig4Result compares the schemes.
type Fig4Result struct {
	ECMP  Fig4Cell
	Conga Fig4Cell
}

// RunFig4 reproduces the Figure 4 example. Results are byte-identical across
// shard counts for the same seed.
// See capture.go for the trace-captured and replayed variants.
func RunFig4(duration Time, o SimOpts) (*Fig4Result, error) {
	return runFig4(duration, o, nil, nil, nil, nil)
}

// Table renders the Figure 4 comparison table.
func (r *Fig4Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 4 — CONGA* vs ECMP (demands: L0->L2 50, L1->L2 120 Mb/s)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s   (paper)\n", "scheme", "thr 50", "thr 120", "max util")
	fmt.Fprintf(&b, "%-12s %9.1f %10.1f %9.0f%%   (45 / 115 / 100%%)\n",
		"ECMP", r.ECMP.Thr0, r.ECMP.Thr1, r.ECMP.MaxUtilPerm/10)
	fmt.Fprintf(&b, "%-12s %9.1f %10.1f %9.0f%%   (50 / 115 / 85%%)\n",
		"CONGA*", r.Conga.Thr0, r.Conga.Thr1, r.Conga.MaxUtilPerm/10)
	fmt.Fprintf(&b, "CONGA* probe overhead: %.2f Mb/s (%.2f%% of traffic; paper <1%%)\n",
		r.Conga.ProbeMbps, r.Conga.ProbeMbps/(r.Conga.Thr0+r.Conga.Thr1)*100)
	return b.String()
}

// ---------------------------------------------------------------------------
// §2.3: NetSight overhead; §2.1 overhead arithmetic.

// Sec23Result is the packet-history overhead accounting.
type Sec23Result struct {
	HeaderBytes, InsnBytes, PerHopBytes, Hops, Total int
	PctAt1000B                                       float64
	Collected                                        int // histories from a demo run
}

// RunSec23 verifies the accounting against a live run.
func RunSec23() (*Sec23Result, error) {
	n := NewNet(SimOpts{Seed: 17})
	hosts, _, _ := n.Dumbbell(4, 1000)
	d := ndb.New(ndb.Config{
		Filter: FilterSpec{Proto: link.ProtoUDP},
		Hosts:  hosts,
	})
	if err := d.Attach(n, nil); err != nil {
		return nil, err
	}
	h0, h3 := n.Hosts[0], n.Hosts[3]
	h3.Bind(8000, link.ProtoUDP, func(p *link.Packet) {})
	for i := 0; i < 50; i++ {
		h0.Send(h0.NewPacket(h3.ID(), 1000, 8000, link.ProtoUDP, 800))
	}
	n.Run()
	total := ndb.OverheadBytes(ndb.DefaultHops)
	return &Sec23Result{
		HeaderBytes: core.HeaderLen,
		InsnBytes:   3 * core.InsnSize,
		PerHopBytes: ndb.WordsPerHop * core.WordSize,
		Hops:        ndb.DefaultHops,
		Total:       total,
		PctAt1000B:  float64(total) / 1000 * 100,
		Collected:   d.Collector.Len(),
	}, nil
}

// Table renders the accounting.
func (r *Sec23Result) Table() string {
	return fmt.Sprintf(`§2.3 — packet-history TPP overhead
header %d B + instructions %d B + %d hops x %d B = %d B/packet
bandwidth overhead at 1000 B packets: %.1f%%  (paper: 84 B, 8.4%% with 16-bit stats)
demo run collected %d complete histories
`, r.HeaderBytes, r.InsnBytes, r.Hops, r.PerHopBytes, r.Total, r.PctAt1000B, r.Collected)
}

// ---------------------------------------------------------------------------
// §2.5: sketch accuracy, memory sizing, sampling overhead.

// Sec25Result summarizes the measurement refactoring.
type Sec25Result struct {
	TrueSources   int
	Estimate      float64
	RelErr        float64
	MemPerServer  int // bytes for k=64 fat-tree at 1 kbit/link
	OverheadFrac  float64
	FatTreeHosts  int
	FatTreeLinks  int
	MonitorPushes uint64
}

// RunSec25 runs the cardinality measurement end to end.
func RunSec25() (*Sec25Result, error) {
	n := NewNet(SimOpts{Seed: 21})
	hosts, _, _ := n.Dumbbell(6, 1000)
	sys := sketch.New(sketch.Config{
		Filter:      FilterSpec{Proto: link.ProtoUDP},
		SampleFreq:  10,
		BitsPerLink: 1024,
		PushEvery:   100 * Millisecond,
		Hosts:       hosts,
	})
	if err := sys.Attach(n, nil); err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	mon := sys.Monitor
	h0 := n.Hosts[0]
	h0.Bind(8000, link.ProtoUDP, func(p *link.Packet) {})
	srcs := 5
	for i := 1; i <= srcs; i++ {
		src := n.Hosts[i]
		for k := 0; k < 200; k++ {
			src.Send(src.NewPacket(h0.ID(), uint16(1000+k%50), 8000, link.ProtoUDP, 600))
		}
	}
	n.RunUntil(Second)
	if err := sys.Stop(); err != nil {
		return nil, err
	}
	n.Run()

	best := 0.0
	for _, k := range mon.Links() {
		if e := mon.Estimate(k); e > best {
			best = e
		}
	}
	var tx, tppBytes uint64
	for _, h := range n.Hosts {
		tx += h.Stats().TxBytes
		tppBytes += h.Stats().TPPBytesAdded
	}
	ftHosts, ftLinks := tppnet.FatTreeDims(64)
	return &Sec25Result{
		TrueSources:   srcs,
		Estimate:      best,
		RelErr:        math.Abs(best-float64(srcs)) / float64(srcs),
		MemPerServer:  sketch.MemoryPerServer(ftLinks, 1024),
		OverheadFrac:  float64(tppBytes) / float64(tx),
		FatTreeHosts:  ftHosts,
		FatTreeLinks:  ftLinks,
		MonitorPushes: mon.Pushes,
	}, nil
}

// Table renders the results.
func (r *Sec25Result) Table() string {
	return fmt.Sprintf(`§2.5 — bitmap-sketch measurement via TPP routing context
unique sources on busiest link: true %d, estimated %.1f (err %.1f%%)
1-in-10 sampling TPP bandwidth overhead: %.2f%%  (paper: <1%%)
k=64 fat-tree: %d servers, %d core links; 1 kbit/link => %d MB/server (paper: ~8MB)
monitor received %d bitmap pushes
`, r.TrueSources, r.Estimate, r.RelErr*100, r.OverheadFrac*100,
		r.FatTreeHosts, r.FatTreeLinks, r.MemPerServer/(1024*1024), r.MonitorPushes)
}

// ---------------------------------------------------------------------------
// Tables 3 and 4 + §6.1 derived claims.

// HardwareTables renders the hardware-model outputs.
func HardwareTables() string {
	var b strings.Builder
	b.WriteString("Table 3 — hardware latency costs\n")
	b.WriteString(hwmodel.Table3())
	fmt.Fprintf(&b, "worst-case 5-CSTORE TPP on ASIC: %.0f ns; stall buffer at 1 Tb/s: %.0f B\n",
		hwmodel.WorstCaseTPPNanos(hwmodel.ASIC, 5),
		hwmodel.StallBufferBytes(hwmodel.WorstCaseTPPNanos(hwmodel.ASIC, 5), 1e12))
	fast, typ := hwmodel.DefaultLatencyContext().ExtraLatencyPctRange()
	fmt.Fprintf(&b, "extra switch latency: %.0f%%-%.0f%% (paper: 10-25%%)\n\n", typ, fast)
	b.WriteString("Table 4 — NetFPGA resource costs\n")
	b.WriteString(hwmodel.Table4())
	m := hwmodel.DefaultAreaModel()
	fmt.Fprintf(&b, "ASIC area: %d TCPUs => %.2f%% of die (paper: 0.32%%)\n",
		m.TCPUs(core.MaxInsns, 64), m.PaperAreaPct())
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 10 / Table 5: the software dataplane (wall-clock benchmarks).

// ShimConfig parameterizes the end-host dataplane benchmark.
type ShimConfig struct {
	Rules      int    // filter-table length
	Match      string // "first", "last", or "all"
	SampleFreq int    // 0 = infinity (no TPP attached), else 1-in-N
	Flows      int    // concurrent sender loops
	TPPBytes   int    // approximate TPP size (paper: 260)
	MSS        int    // application payload per packet (paper: 1240)
	Packets    int    // total packets to push
}

// ShimResult is a wall-clock dataplane measurement.
type ShimResult struct {
	Packets     int
	Elapsed     time.Duration
	NetGbps     float64 // wire bytes rate
	GoodputGbps float64 // application payload rate
	AttachFrac  float64 // fraction of packets instrumented
}

func (c ShimConfig) withDefaults() ShimConfig {
	if c.Rules < 0 {
		c.Rules = 0
	}
	if c.Match == "" {
		c.Match = "first"
	}
	if c.Flows == 0 {
		c.Flows = 1
	}
	if c.TPPBytes == 0 {
		c.TPPBytes = 260
	}
	if c.MSS == 0 {
		// The paper reduced the MSS to leave room for the 260 B TPP within
		// the MTU; with our 54 B header model the ceiling is 1200.
		c.MSS = 1200
	}
	if c.Packets == 0 {
		c.Packets = 200_000
	}
	return c
}

// shimProgram builds a TPP of roughly the requested wire size.
func shimProgram(bytes int) *core.Program {
	words := (bytes - core.HeaderLen - 2*core.InsnSize) / core.WordSize
	if words < 1 {
		words = 1
	}
	if words > core.MaxMemWords {
		words = core.MaxMemWords
	}
	return &core.Program{
		Mode:     core.AddrStack,
		MemWords: words,
		Insns: []core.Instruction{
			{Op: core.OpPUSH, Addr: 0x0000},
			{Op: core.OpPUSH, Addr: 0xB000},
		},
	}
}

// RunShim measures the transmit-side shim in wall-clock time: filter match,
// sampling, TPP attachment. Each flow runs its own host (shims are per-host)
// on its own goroutine, mirroring the paper's multi-flow scaling runs.
func RunShim(cfg ShimConfig) (*ShimResult, error) {
	cfg = cfg.withDefaults()
	freq := cfg.SampleFreq
	infinite := freq == 0
	if infinite {
		freq = 1 << 30
	}

	type worker struct {
		h     *host.Host
		ports []uint16
	}
	workers := make([]worker, cfg.Flows)
	for w := range workers {
		eng := sim.New(int64(w + 1))
		cp := host.NewControlPlane()
		h := host.New(eng, link.NodeID(w+1), cp)
		app := cp.RegisterApp("bench")
		// Install the rule table: each rule matches one UDP dst port.
		for rI := 0; rI < cfg.Rules; rI++ {
			prog := shimProgram(cfg.TPPBytes)
			if _, err := h.AddTPP(app, host.FilterSpec{
				Proto:   link.ProtoUDP,
				DstPort: uint16(1000 + rI),
			}, prog, freq, rI); err != nil {
				return nil, err
			}
		}
		var ports []uint16
		switch {
		case cfg.Rules == 0:
			ports = []uint16{999} // matches nothing
		case cfg.Match == "first":
			ports = []uint16{1000}
		case cfg.Match == "last":
			ports = []uint16{uint16(1000 + cfg.Rules - 1)}
		default: // "all": cycle every rule
			for rI := 0; rI < cfg.Rules; rI++ {
				ports = append(ports, uint16(1000+rI))
			}
		}
		workers[w] = worker{h: h, ports: ports}
	}

	perFlow := cfg.Packets / cfg.Flows
	wire := cfg.MSS + transport.HeaderBytes
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perFlow; i++ {
				p := w.h.NewPacket(99, 555, w.ports[i%len(w.ports)], link.ProtoUDP, wire)
				w.h.Send(p) // NIC is nil: the shim cost is what we measure
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var attached, netBytes uint64
	total := perFlow * cfg.Flows
	for _, w := range workers {
		st := w.h.Stats()
		attached += st.TPPsAttached
		netBytes += st.TxBytes
	}
	sec := elapsed.Seconds()
	return &ShimResult{
		Packets:     total,
		Elapsed:     elapsed,
		NetGbps:     float64(netBytes) * 8 / sec / 1e9,
		GoodputGbps: float64(total*cfg.MSS) * 8 / sec / 1e9,
		AttachFrac:  float64(attached) / float64(total),
	}, nil
}

// RunFig10 sweeps sampling frequency x flow counts like Figure 10.
func RunFig10(packets int) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 10 — shim throughput vs TPP sampling frequency (wall clock)\n")
	fmt.Fprintf(&b, "%-8s %-6s %10s %10s %8s\n", "sample", "flows", "net Gb/s", "good Gb/s", "attach%")
	for _, freq := range []int{1, 10, 20, 0} {
		for _, flows := range []int{1, 10, 20} {
			res, err := RunShim(ShimConfig{
				Rules: 1, Match: "first", SampleFreq: freq,
				Flows: flows, Packets: packets,
			})
			if err != nil {
				return "", err
			}
			label := "inf"
			if freq != 0 {
				label = fmt.Sprintf("%d", freq)
			}
			fmt.Fprintf(&b, "%-8s %-6d %10.2f %10.2f %7.1f%%\n",
				label, flows, res.NetGbps, res.GoodputGbps, res.AttachFrac*100)
		}
	}
	b.WriteString("(shape: network throughput ~flat; goodput drops as sampling -> 1)\n")
	return b.String(), nil
}

// RunTable5 sweeps the filter-table length like Table 5.
func RunTable5(packets int) (string, error) {
	var b strings.Builder
	b.WriteString("Table 5 — shim throughput (Gb/s) vs number of filter rules\n")
	fmt.Fprintf(&b, "%-8s", "match")
	rules := []int{0, 1, 10, 100, 1000}
	for _, r := range rules {
		fmt.Fprintf(&b, "%8d", r)
	}
	b.WriteString("\n")
	for _, match := range []string{"first", "last", "all"} {
		fmt.Fprintf(&b, "%-8s", match)
		for _, r := range rules {
			res, err := RunShim(ShimConfig{
				Rules: r, Match: match, SampleFreq: 1,
				Flows: 10, Packets: packets,
			})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%8.2f", res.NetGbps)
		}
		b.WriteString("\n")
	}
	b.WriteString("(shape: flat through 10 rules, degrading at 100/1000)\n")
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// §2.1 overhead accounting.

// Sec21Table renders the micro-burst TPP overhead arithmetic.
func Sec21Table() string {
	hops := 5
	total := core.HeaderLen + 3*core.InsnSize + hops*microburst.WordsPerHop*core.WordSize
	return fmt.Sprintf(`§2.1 — micro-burst TPP overhead at network diameter %d
header %d B + 3 instructions %d B + %d hops x %d B stats = %d B/packet
(paper: 54 B with 16-bit statistics words; ours are 32-bit => %d B)
`, hops, core.HeaderLen, 3*core.InsnSize, hops, microburst.WordsPerHop*core.WordSize, total, total)
}
