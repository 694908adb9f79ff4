package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"minions/internal/topo"
	"minions/telemetry"
	"minions/telemetry/trace"
	"minions/tpp"
	"minions/tppnet"
	"minions/workload"
)

// hostAgg is one host's tally of executed TPPs, written only by that
// host's shard goroutine; padded so neighbouring hosts in different shards
// never share a cache line.
type hostAgg struct {
	records uint64 // hop records read off delivered TPP sections
	pkts    uint64 // instrumented packets delivered
	hops    uint64 // Σ switch hops (TCPU executions) of those packets
	_       [5]uint64
}

// scenario is one wired fabric with its traffic attached and warmed up,
// ready for the measured window.
type scenario struct {
	w      *Workload
	net    *tppnet.Network
	runner *workload.Runner
	shape  *tppShape
	aggs   []hostAgg
	pipe   *telemetry.Pipeline
	cap    *trace.Capture
	isNIC  []bool // per link: the transmitter is a host

	routeBytesPerNode float64
}

// Set-up span names, children of "setup"; each is also a per-layer metric.
var setupPhases = []string{
	"topo.build", "topo.route", "host.install", "workload.attach", "topo.prewarm", "testbed.warmup",
}

// wireFatTree wires w's fat-tree into net without computing routes. The
// public tppnet.Network.FatTree wires and routes in one call; this is the
// benchmark's one step off the public surface outside drivers.go, taken so
// that topo.build_s and topo.route_s can be timed apart (the import guard
// holds it to this symbol).
func wireFatTree(net *tppnet.Network, w *Workload) {
	topo.FatTreeBuild(net.Network, w.K, w.RateMbps)
}

// buildScenario runs the whole set-up: topology build, route computation,
// TPP and application install, workload attach, pre-warm and the simulated
// warm-up. Each phase is one span under "setup".
func buildScenario(w *Workload, seed int64, warmup tppnet.Time, rec *Recorder) (*scenario, error) {
	sc := &scenario{w: w}
	var err error
	rec.Begin("setup")
	defer rec.End()

	rec.Do("topo.build", func() {
		sc.net = tppnet.NewNetwork(tppnet.WithSeed(seed), tppnet.WithShards(w.Shards))
		wireFatTree(sc.net, w)
	})

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec.Do("topo.route", sc.net.ComputeRoutes)
	runtime.ReadMemStats(&m1)
	nodes := len(sc.net.Hosts) + len(sc.net.Switches)
	sc.routeBytesPerNode = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(nodes)

	rec.Do("host.install", func() { err = sc.install() })
	if err != nil {
		return nil, err
	}
	rec.Do("workload.attach", func() {
		sc.runner, err = sc.net.AttachWorkload(w.spec(seed))
	})
	if err != nil {
		return nil, err
	}
	rec.Do("topo.prewarm", func() {
		tppBytes := 0
		if sc.shape != nil {
			tppBytes = len(sc.shape.enc)
		}
		sc.net.Prewarm(0, tppBytes)
	})
	rec.Do("testbed.warmup", func() { sc.net.RunFor(warmup) })

	links := sc.net.Links()
	sc.isNIC = make([]bool, len(links))
	for i := range links {
		sc.isNIC[i] = !sc.net.IsSwitchNode(sc.net.LinkEndsOf(i).Src)
	}
	return sc, nil
}

// install attaches the workload's TPP to every UDP data packet on every
// host and registers a non-copying aggregator that counts hop records
// straight off the section words; Export additionally publishes one
// telemetry record per hop record and captures every transmitted packet.
func (sc *scenario) install() error {
	w, net := sc.w, sc.net
	sc.aggs = make([]hostAgg, len(net.Hosts))
	if w.Prog == progNone {
		return nil
	}
	app := net.CP.RegisterApp("bench-" + w.Name)
	shape, err := buildProgram(w.Prog, net.CP, app)
	if err != nil {
		return err
	}
	sc.shape = shape
	if w.Export {
		sc.pipe = telemetry.NewPipeline(telemetry.Config{Spool: 4096, Policy: telemetry.Block})
		sc.pipe.Attach(telemetry.NewNDJSONSink(io.Discard))
		if sc.cap, err = trace.Start(io.Discard, net.Hosts...); err != nil {
			return err
		}
	}
	pipe, base, per := sc.pipe, shape.spBase, shape.perHop
	for i, h := range net.Hosts {
		if _, err := h.AddTPP(app, tppnet.FilterSpec{Proto: tppnet.ProtoUDP}, shape.prog, 1, 0); err != nil {
			return err
		}
		a, host := &sc.aggs[i], h
		h.RegisterAggregator(app.Wire, func(p *tppnet.Packet, view tpp.Section) {
			sp := view.HopOrSP()
			if max := view.MemWords(); sp > max {
				sp = max
			}
			recs := (sp - base) / per
			a.records += uint64(recs)
			a.pkts++
			a.hops += uint64(p.Hops)
			if pipe == nil {
				return
			}
			now := int64(host.Engine().Now())
			for r := 0; r < recs; r++ {
				wd := base + r*per
				pipe.Publish(telemetry.Record{
					At: now, App: "bench", Kind: "hop",
					Node: uint64(view.Word(wd)),
					Val:  float64(view.Word(wd + 1)),
					Aux:  [3]uint64{uint64(r), uint64(p.Flow.Src), uint64(p.Flow.Dst)},
				})
			}
		})
	}
	return nil
}

// counters is one scrape of every public counter the benchmark reads. All
// fields are running totals since time zero; windows are differences.
type counters struct {
	pktHops, txBytes    uint64 // Σ Link.Stats().TxPackets / TxBytes
	linkDrops, nicDrops uint64 // Σ Link.Stats().DropPackets; host-NIC part
	queueMax            int    // largest instantaneous queue, packets

	hostTx, hostRx        uint64
	attached, mtuSkips    uint64
	stripped, unclaimed   uint64
	swRx                  uint64 // Σ switch port receives
	swDrops               map[string]uint64
	sinkPkts, sinkBytes   uint64
	records, tppPkts      uint64
	tppHops               uint64
	poolGets, poolNews    uint64
	sync                  tppnet.SyncStats
	msgs, genPkts, ovf    uint64
	requests              uint64
	flowPkts              uint64
	published, pipeBatch  uint64
	pipeDropped           uint64
	faultsInjected        uint64
	captured              uint64
	workloadFP, dropsLine string
}

// dropReasons lists the switch drop reasons by their public names, in
// DropReason order; the first four are switch-local, the rest re-publish
// drops the egress link reported.
var (
	localDropReasons = []string{"no-route", "ttl-expired", "no-link", "switch-halted"}
	linkDropReasons  = []string{"queue-full", "link-down", "fault-loss"}
)

// scrapeNet reads the counters every network exposes.
func scrapeNet(net *tppnet.Network, isNIC []bool, c *counters) {
	for i, l := range net.Links() {
		st := l.Stats()
		c.pktHops += st.TxPackets
		c.txBytes += st.TxBytes
		c.linkDrops += st.DropPackets
		if isNIC[i] {
			c.nicDrops += st.DropPackets
		}
		c.queueMax = max(c.queueMax, l.QueueLenPackets())
	}
	for _, h := range net.Hosts {
		st := h.Stats()
		c.hostTx += st.TxPackets
		c.hostRx += st.RxPackets
		c.attached += st.TPPsAttached
		c.mtuSkips += st.MTUSkips
		c.stripped += st.TPPsStripped
		c.unclaimed += st.UnclaimedViews
	}
	c.swDrops = make(map[string]uint64)
	for _, sw := range net.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			_, pk := sw.Port(p).RxStats()
			c.swRx += pk
		}
		for r := tppnet.DropReason(0); r.String() != "unknown"; r++ {
			c.swDrops[r.String()] += sw.Drops(r)
		}
	}
	c.poolGets, _, c.poolNews = net.PoolStats()
	if g := net.Group(); g != nil {
		c.sync = g.Stats()
	}
	if inj := net.Faults(); inj != nil {
		fc := inj.Counts()
		c.faultsInjected = fc.LinkDowns + fc.Losses + fc.Corruptions + fc.Stalls + fc.Halts + fc.BurstStarts
	}
	var b strings.Builder
	for _, r := range append(append([]string(nil), localDropReasons...), linkDropReasons...) {
		fmt.Fprintf(&b, "%s=%d ", r, c.swDrops[r])
	}
	fmt.Fprintf(&b, "nic=%d", c.nicDrops)
	c.dropsLine = b.String()
}

// pendingEvents returns the events scheduled across every engine (plus
// crossings parked in mailboxes). Call between runs.
func pendingEvents(net *tppnet.Network) int {
	if g := net.Group(); g != nil {
		return g.Pending()
	}
	return net.Eng.Pending()
}

// sampleNet is the allocation-free reading taken between window slices:
// total link transmissions, the deepest queue, and pending events.
func sampleNet(net *tppnet.Network) (tx uint64, queue, pending int) {
	for _, l := range net.Links() {
		tx += l.Stats().TxPackets
		queue = max(queue, l.QueueLenPackets())
	}
	return tx, queue, pendingEvents(net)
}

// scrape reads every counter of a fabric scenario.
func (sc *scenario) scrape() counters {
	var c counters
	scrapeNet(sc.net, sc.isNIC, &c)
	for _, s := range sc.runner.Sinks {
		c.sinkPkts += s.Packets
		c.sinkBytes += s.Bytes
	}
	for i := range sc.aggs {
		a := &sc.aggs[i]
		c.records += a.records
		c.tppPkts += a.pkts
		c.tppHops += a.hops
	}
	for _, f := range sc.runner.UDPFlows {
		c.flowPkts += f.TxPkts
	}
	for _, gs := range sc.runner.Stats() {
		c.msgs += gs.Messages
		c.genPkts += gs.Packets
		c.ovf += gs.Overflow
		c.requests += gs.Requests
	}
	c.genPkts -= c.flowPkts // GroupStats.Packets folds the flows' packets in
	if sc.pipe != nil {
		st := sc.pipe.Stats()
		c.published, c.pipeBatch = st.Published, st.Batches
		c.pipeDropped = st.DroppedOldest + st.DroppedNewest
	}
	if sc.cap != nil {
		c.captured = sc.cap.Packets
	}
	c.workloadFP = sc.runner.Fingerprint()
	return c
}

// window is what one measured window observed: host-time readings plus the
// counter scrapes on either side.
type window struct {
	wall       time.Duration
	sim        tppnet.Time
	events     int
	before     counters
	after      counters
	mallocs    uint64
	heapBytes  uint64
	slicesNs   []float64 // traced: host ns per pkt-hop of each slice
	pendingSum float64   // traced: Σ pending events sampled per slice
	queueMax   int       // traced: largest queue seen at a slice boundary
}

const windowSlices = 100

// measure runs the measured window: a forced GC and live-heap reading, a
// scrape, the simulated window (one RunFor untraced; windowSlices equal
// slices, each a span, when traced), and a scrape. profile, when non-nil,
// wraps just the simulated window.
func (sc *scenario) measure(dur tppnet.Time, traced bool, rec *Recorder, profile func(run func())) window {
	win := window{sim: dur}
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win.heapBytes = m0.HeapAlloc
	win.before = sc.scrape()

	rec.Begin("window")
	if !traced {
		t0 := time.Now()
		win.events = sc.net.RunFor(dur)
		win.wall = time.Since(t0)
	} else {
		profile(func() {
			step := dur / windowSlices
			prev := win.before.pktHops
			for i := 0; i < windowSlices; i++ {
				rec.Begin("slice")
				win.events += sc.net.RunFor(step)
				d := rec.End()
				win.wall += d
				// Between slices, outside every slice span: per-slice cost
				// and the population samples the sim driver replays.
				tx, queue, pending := sampleNet(sc.net)
				if hops := tx - prev; hops > 0 {
					win.slicesNs = append(win.slicesNs, float64(d.Nanoseconds())/float64(hops))
				}
				prev = tx
				win.pendingSum += float64(pending)
				win.queueMax = max(win.queueMax, queue)
			}
		})
	}
	rec.End()
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.after = sc.scrape()
	return win
}

// drain stops every source and runs the simulation dry, so conservation
// and the pool-leak invariant are checkable; then flushes and closes the
// export plane.
func (sc *scenario) drain(rec *Recorder) error {
	rec.Do("drain", func() {
		sc.runner.Stop()
		sc.net.Run()
	})
	var err error
	rec.Do("flush", func() {
		if sc.pipe != nil {
			sc.pipe.Flush()
			err = sc.pipe.Err()
		}
		if sc.cap != nil {
			if cerr := sc.cap.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}
