package bench

import (
	"io"
	"time"

	"minions/internal/core"
	"minions/internal/device"
	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/transport"
	"minions/telemetry"
	"minions/telemetry/trace"
	"minions/tppnet"
)

// Layer drivers: each layer timed from outside through its public entry
// points, fed the workload's own program, packet size and measured event
// population. A driver reports host nanoseconds per call, inclusive of the
// layers below it; the ledger (fillLedger) subtracts the child drivers to
// get self time, then multiplies by the in-situ call counts.
//
// The drivers run one layer in isolation, so its code and data stay in
// cache; the cpu_share.* metrics from the in-situ profile are printed
// beside the ledger precisely so that warm-cache bias is visible.

// driverMetricNames are the per-layer metrics the drivers emit.
var driverMetricNames = []string{
	"sim.ns_per_event", "link.ns_per_pkt", "device.ns_per_receive", "core.ns_per_exec",
	"host.ns_per_send", "host.ns_per_receive", "transport.ns_per_pkt", "workload.ns_per_pkt",
	"telemetry.ns_per_record", "telemetry.ns_per_capture",
	"sim.shard_ns_per_crossing", "link.boundary_ns_per_crossing",
}

// ledgerLayers are the rows of the packet-hop ledger.
var ledgerLayers = []string{
	"sim", "link", "device", "core", "host", "transport", "workload", "telemetry", "sim.shard",
}

// driverCosts holds every driver's reading, host ns per call.
type driverCosts struct {
	simEvent      float64 // Schedule + dispatch at the window's mean population
	simSmall      float64 // the same with one pending event, as inside the rigs below
	linkPkt       float64 // Enqueue → txDone → deliver → stub receiver
	devRecv       float64 // Switch.Receive (TCPU included) → egress link → stub
	coreExec      float64 // Executor.Exec of the workload's section
	hostSend      float64 // Host.Send (attach) → NIC link → stub
	hostRecv      float64 // Host.Receive (strip, aggregate) → bound handler
	transportPkt  float64 // UDPFlow tick → host → link → host → Sink
	workloadPkt   float64 // resident generator → host → NIC link → stub
	workloadEvs   float64 // generator events per generated packet
	telemetryRec  float64 // Publish + its share of Flush
	captureRec    float64 // trace capture tap, per transmitted packet
	shardCross    float64 // Channel.Send + drain, per crossing
	boundaryCross float64 // added host time per boundary-link crossing
}

// nominalBatch is how long each driver batch runs at NominalSeconds: long
// enough that timer and warm-up effects vanish, short enough that all
// drivers fit in about two seconds. Shorter runs shorten it in proportion.
const nominalBatch = 150 * time.Millisecond

// driverRun times driver loops, each batch one span.
type driverRun struct {
	rec   *Recorder
	batch time.Duration
}

// loop runs body in growing batches until one lasts d.batch, and returns
// host ns per operation of that last batch. body is asked for n operations
// and returns how many it performed.
func (d *driverRun) loop(name string, body func(n int) int) float64 {
	body(64) // warm caches, pools and rings
	n := 256
	for {
		d.rec.Begin(name)
		t0 := time.Now()
		done := body(n)
		took := time.Since(t0)
		d.rec.End()
		if took >= d.batch || n >= 1<<26 {
			if done < 1 {
				done = 1
			}
			return float64(took.Nanoseconds()) / float64(done)
		}
		if took < d.batch/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(d.batch)/float64(took)*1.1) + 1
		}
	}
}

// rig is the common fixture: one engine, one pool, a stub receiver that
// ends every packet's journey.
type rig struct {
	eng  *sim.Engine
	pool *link.Pool
	cfg  link.Config
	size int // wire bytes before any TPP
	sh   *tppShape
	cp   *host.ControlPlane
	app  *host.App
}

type stubReceiver struct{ n uint64 }

func (s *stubReceiver) Receive(p *link.Packet, _ int) { s.n++; p.Release() }

func newRig(w *Workload) (*rig, error) {
	r := &rig{
		eng: sim.New(1), pool: link.NewPool(),
		cfg:  tppnet.HostLink(w.RateMbps),
		size: cbrPktSize,
		cp:   host.NewControlPlane(),
	}
	if w.Mix {
		r.size = mixPktSize + transport.HeaderBytes
	}
	if w.Chaos {
		r.size = 1500
	}
	r.app = r.cp.RegisterApp("driver")
	var err error
	if r.sh, err = buildProgram(w.Prog, r.cp, r.app); err != nil {
		return nil, err
	}
	return r, nil
}

// packet draws a data packet src→dst, carrying the workload's TPP with
// hops executed hop records already on it.
func (r *rig) packet(src, dst link.NodeID, hops int) *link.Packet {
	p := r.pool.Get()
	p.Flow = link.FlowKey{Src: src, Dst: dst, SrcPort: 5000, DstPort: cbrPort, Proto: link.ProtoUDP}
	p.Size = r.size
	p.TTL = 64
	if r.sh != nil {
		sec := p.SectionBuf(len(r.sh.enc))
		copy(sec, r.sh.enc)
		sec.SetHopOrSP(r.sh.spBase + hops*r.sh.perHop)
		p.TPP = sec
		p.Size += len(sec)
		p.Hops = hops
	}
	return p
}

// delayMix is the workload's mix of event delays: serialization of one
// packet, link propagation, and the pacing gap of its sources.
func delayMix(w *Workload, size int) []sim.Time {
	cfg := tppnet.HostLink(w.RateMbps)
	ser := sim.Time(int64(size) * 8 * int64(sim.Second) / cfg.RateBps)
	gap := sim.Time(int64(cbrPktSize) * 8 * int64(sim.Second) / cbrRateBps)
	switch {
	case w.Mix:
		gap = 2 * sim.Millisecond // incast period
	case w.Chaos:
		gap = chaosEpoch
	}
	return []sim.Time{ser, cfg.Delay, ser, cfg.Delay, gap}
}

// rearm is a resident no-op handler that re-schedules itself.
type rearm struct {
	eng *sim.Engine
	d   sim.Time
}

func (h *rearm) Handle(arg uint64) { h.eng.ScheduleAfter(h.d, h, arg) }

// driveSim times Engine.Schedule + dispatch of pop resident no-op handlers
// re-arming with the given delays.
func driveSim(d *driverRun, name string, pop int, delays []sim.Time) float64 {
	if pop < 1 {
		pop = 1
	}
	eng := sim.New(1)
	var perNs float64 // events per simulated ns
	for i := 0; i < pop; i++ {
		h := &rearm{eng: eng, d: delays[i%len(delays)]}
		eng.Schedule(sim.Time(i)%h.d, h, 0)
		perNs += 1 / float64(h.d)
	}
	return d.loop(name, func(n int) int {
		return eng.RunUntil(eng.Now() + sim.Time(float64(n)/perNs) + 1)
	})
}

// driveLink times Link.Enqueue through txDone and deliver into a stub.
func driveLink(d *driverRun, r *rig) float64 {
	stub := &stubReceiver{}
	l := link.New(r.eng, r.cfg, stub, 0)
	return d.loop("link.driver", func(n int) int {
		for i := 0; i < n; i++ {
			l.Enqueue(r.packet(1, 2, 1))
			r.eng.Run()
		}
		return n
	})
}

// driveDevice times Switch.Receive — route lookup, ECMP pick, TCPU
// execution of the workload's program — through the egress link to a stub.
func driveDevice(d *driverRun, r *rig) float64 {
	stub := &stubReceiver{}
	sw := device.New(r.eng, device.Config{ID: 1, NumPorts: 4, NodeID: 1001, VendorID: 0xACE1})
	sw.SetWritePolicy(r.cp.SwitchWritePolicy())
	for port := 1; port < 4; port++ {
		sw.AttachLink(port, link.New(r.eng, r.cfg, stub, 0), uint32(port))
	}
	sw.AddRoute(2, 1, 2, 3) // a 3-way ECMP group, as on a fat-tree uplink
	return d.loop("device.driver", func(n int) int {
		for i := 0; i < n; i++ {
			sw.Receive(r.packet(1, 2, 1), 0)
			r.eng.Run()
		}
		return n
	})
}

// driveCore times Executor.Exec on the workload's encoded section against
// a register file holding every address the program touches.
func driveCore(d *driverRun, r *rig) float64 {
	if r.sh == nil {
		return 0
	}
	regs := core.NewRegisterFile()
	for _, in := range r.sh.prog.Insns {
		regs.Set(in.Addr, 7)
	}
	ex := core.NewExecutor(core.Env{Mem: regs})
	sec := r.sh.enc.Clone()
	return d.loop("core.driver", func(n int) int {
		done := 0
		for i := 0; i < n; i++ {
			sec.SetHopOrSP(r.sh.spBase + r.sh.perHop) // second hop of a path
			sec.SetWord(1, 7)                         // keep the CSTORE compare succeeding
			if res := ex.Exec(sec); !res.Halted {
				done++
			}
		}
		return done
	})
}

// newHost wires a host whose NIC feeds dst.
func (r *rig) newHost(id link.NodeID, dst link.Receiver) *host.Host {
	h := host.New(r.eng, id, r.cp)
	h.SetPool(r.pool)
	h.AttachNIC(link.New(r.eng, r.cfg, dst, 0))
	if r.sh != nil {
		if _, err := h.AddTPP(r.app, host.FilterSpec{Proto: link.ProtoUDP}, r.sh.prog, 1, 0); err != nil {
			panic(err) // the same program validated in buildProgram
		}
		h.RegisterAggregator(r.app.Wire, func(*link.Packet, core.Section) {})
	}
	return h
}

// driveHostSend times Host.Send — filter match and TPP attach — through
// the NIC link to a stub; with capture, a trace tap records every packet.
func driveHostSend(d *driverRun, r *rig, capture bool) float64 {
	h := r.newHost(1, &stubReceiver{})
	if capture {
		c, err := trace.Start(io.Discard, h)
		if err != nil {
			return 0
		}
		defer c.Close()
	}
	return d.loop("host.send.driver", func(n int) int {
		for i := 0; i < n; i++ {
			h.Send(h.NewPacket(2, 5000, cbrPort, link.ProtoUDP, r.size))
			r.eng.Run()
		}
		return n
	})
}

// driveHostRecv times Host.Receive — TPP strip, aggregator dispatch, port
// demux — into a bound handler that releases the packet.
func driveHostRecv(d *driverRun, r *rig) float64 {
	h := r.newHost(2, &stubReceiver{})
	h.Bind(cbrPort, link.ProtoUDP, func(p *link.Packet) { p.Release() })
	return d.loop("host.receive.driver", func(n int) int {
		for i := 0; i < n; i++ {
			h.Receive(r.packet(1, 2, 3), 0)
		}
		return n
	})
}

// driveTransport times a UDPFlow sending into a Sink across one link.
func driveTransport(d *driverRun, r *rig) float64 {
	b := r.newHost(2, &stubReceiver{})
	a := r.newHost(1, b)
	sink := transport.NewSink(b, cbrPort, link.ProtoUDP)
	f := transport.NewUDPFlow(a, 2, 5000, cbrPort, r.size)
	f.SetRateBps(r.cfg.RateBps / 2)
	f.Start()
	gap := sim.Time(int64(r.size) * 8 * int64(sim.Second) / f.RateBps())
	return d.loop("transport.driver", func(n int) int {
		before := sink.Packets
		r.eng.RunUntil(r.eng.Now() + sim.Time(n)*gap)
		return int(sink.Packets - before)
	})
}

// driveWorkload times the workload's resident generators (Spec.Attach) on
// hosts whose NICs end in stubs. It returns host ns and generator events
// per generated packet; zero when the spec compiles to plain flows only.
func driveWorkload(d *driverRun, r *rig, w *Workload) (ns, evsPerPkt float64) {
	if !w.Mix {
		return 0, 0
	}
	nHosts, _ := tppnet.FatTreeDims(w.K)
	hosts := make([]*host.Host, nHosts)
	for i := range hosts {
		hosts[i] = r.newHost(link.NodeID(i+1), &stubReceiver{})
	}
	runner, err := w.spec(1).Attach(hosts)
	if err != nil {
		return 0, 0
	}
	tx := func() (n uint64) {
		for _, h := range hosts {
			n += h.Stats().TxPackets
		}
		return n
	}
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	var pkts, events float64
	step := 20 * sim.Millisecond
	perPkt := d.loop("workload.driver", func(n int) int {
		// n is a packet target; advance simulated time in steps until the
		// generators have produced that many.
		start := tx()
		ev := 0
		for tx()-start < uint64(n) {
			ev += r.eng.RunUntil(r.eng.Now() + step)
		}
		pkts, events = float64(tx()-start), float64(ev)
		return int(pkts)
	})
	runner.Stop()
	// Every packet costs two link events (txDone, deliver); the rest are
	// the generators' own.
	return perPkt, pos(events-2*pkts) / pkts
}

// driveTelemetry times Publish plus its share of Flush into an NDJSON
// sink over io.Discard, with the export workload's spool size.
func driveTelemetry(d *driverRun) float64 {
	pipe := telemetry.NewPipeline(telemetry.Config{Spool: 4096, Policy: telemetry.Block})
	pipe.Attach(telemetry.NewNDJSONSink(io.Discard))
	r := telemetry.Record{App: "bench", Kind: "hop", Node: 1001, Val: 3, Aux: [3]uint64{1, 2, 3}}
	return d.loop("telemetry.driver", func(n int) int {
		for i := 0; i < n; i++ {
			pipe.Publish(r)
		}
		pipe.Flush()
		return n
	})
}

// crosser re-arms itself and sends one crossing per firing.
type crosser struct {
	eng *sim.Engine
	ch  *sim.Channel
	d   sim.Time
	to  sim.Handler
}

func (c *crosser) Handle(arg uint64) {
	c.ch.Send(c.eng.Now(), c.to, arg)
	c.eng.ScheduleAfter(c.d, c, arg)
}

type nopHandler struct{ n uint64 }

func (h *nopHandler) Handle(uint64) { h.n++ }

// driveShard times Channel.Send plus the drain into the destination
// engine on a two-engine ShardGroup with symmetric traffic. Each shard
// handles one local and one crossing event per crossing it emits.
func driveShard(d *driverRun, delays []sim.Time) float64 {
	engs := []*sim.Engine{sim.New(1), sim.New(2)}
	g := sim.NewShardGroup(engs)
	const pop = 64
	sinks := []*nopHandler{{}, {}}
	for s := 0; s < 2; s++ {
		ch := g.AddChannel(s, 1-s, delays[1])
		for i := 0; i < pop; i++ {
			c := &crosser{eng: engs[s], ch: ch, d: delays[0], to: sinks[1-s]}
			engs[s].Schedule(sim.Time(i)%c.d, c, 0)
		}
	}
	perNs := 2 * pop / float64(delays[0]) // crossings per simulated ns
	return d.loop("sim.shard.driver", func(n int) int {
		before := sinks[0].n + sinks[1].n
		g.RunUntil(g.Now() + sim.Time(float64(n)/perNs) + 1)
		return int(sinks[0].n + sinks[1].n - before)
	})
}

// driveBoundary measures what a shard-crossing link adds: the same
// two-switch line carrying the same two CBR flows, once with the switches
// in different shards and once on one engine; the difference per crossing.
func driveBoundary(d *driverRun, w *Workload, size int) float64 {
	run := func(shards int, name string) float64 {
		net := tppnet.NewNetwork(tppnet.WithShards(shards))
		if shards > 1 {
			net.PlanPartition([]int{0, 1, 0, 1}) // swA, swB, hA, hB
		}
		swA, swB := net.AddSwitch(2), net.AddSwitch(2)
		hA, hB := net.AddHost(), net.AddHost()
		cfg := tppnet.HostLink(w.RateMbps)
		net.Connect(hA, swA, cfg)
		net.Connect(hB, swB, cfg)
		net.Connect(swA, swB, cfg)
		net.ComputeRoutes()
		rate := cfg.RateBps / 2
		var sinks []*tppnet.Sink
		for _, pr := range [][2]*tppnet.Host{{hA, hB}, {hB, hA}} {
			sinks = append(sinks, tppnet.NewSink(pr[1], cbrPort, tppnet.ProtoUDP))
			f := tppnet.NewUDPFlow(pr[0], pr[1].ID(), 5000, cbrPort, size)
			f.SetRateBps(rate)
			f.Start()
		}
		gap := tppnet.Time(int64(size) * 8 * int64(tppnet.Second) / rate)
		// Operations are packets across the middle link, both directions.
		return d.loop(name, func(n int) int {
			before := sinks[0].Packets + sinks[1].Packets
			net.RunFor(tppnet.Time(n/2+1) * gap)
			return int(sinks[0].Packets + sinks[1].Packets - before)
		})
	}
	return run(2, "link.boundary.driver") - run(1, "link.line.driver")
}

// runDrivers runs every layer driver for the workload and returns the
// readings.
func runDrivers(w *Workload, in *insitu, rec *Recorder, scale float64) *driverCosts {
	c := &driverCosts{}
	d := &driverRun{rec: rec, batch: nominalBatch}
	if scale < 1 {
		d.batch = time.Duration(float64(nominalBatch) * scale)
	}
	rec.Begin("drivers")
	defer rec.End()
	r, err := newRig(w)
	if err != nil {
		return c
	}
	size := r.size
	if r.sh != nil {
		size += len(r.sh.enc)
	}
	delays := delayMix(w, size)
	c.simEvent = driveSim(d, "sim.driver", int(in.pendingMean+0.5), delays)
	c.simSmall = driveSim(d, "sim.small.driver", 1, delays[:1])
	c.linkPkt = driveLink(d, r)
	c.devRecv = driveDevice(d, r)
	c.coreExec = driveCore(d, r)
	c.hostSend = driveHostSend(d, r, false)
	if w.Export {
		c.captureRec = driveHostSend(d, r, true) - c.hostSend
		c.telemetryRec = driveTelemetry(d)
	}
	c.hostRecv = driveHostRecv(d, r)
	c.transportPkt = driveTransport(d, r)
	c.workloadPkt, c.workloadEvs = driveWorkload(d, r, w)
	if w.Shards > 1 {
		c.shardCross = driveShard(d, delays)
		c.boundaryCross = driveBoundary(d, w, size)
	}
	return c
}

func pos(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// fillLedger emits the driver readings and the ledger: per layer, driver
// self time × in-situ calls per pkt-hop. Self is inclusive minus the child
// drivers the call invokes; the span tree is
//
//	run → sim.dispatch → { link → device → {core, link.enqueue},
//	                       host.receive → transport,
//	                       transport|workload → host.send → link.enqueue }
//
// testbed.attribution_residual_pct is the share of the traced end-to-end
// ns_per_pkt_hop the ledger does not explain.
func fillLedger(L map[string]float64, c *driverCosts, in *insitu, nsHop float64) {
	L["sim.ns_per_event"] = c.simEvent
	L["link.ns_per_pkt"] = c.linkPkt
	L["device.ns_per_receive"] = c.devRecv
	L["core.ns_per_exec"] = c.coreExec
	L["host.ns_per_send"] = c.hostSend
	L["host.ns_per_receive"] = c.hostRecv
	L["transport.ns_per_pkt"] = c.transportPkt
	L["workload.ns_per_pkt"] = c.workloadPkt
	L["telemetry.ns_per_record"] = c.telemetryRec
	L["telemetry.ns_per_capture"] = pos(c.captureRec)
	L["sim.shard_ns_per_crossing"] = c.shardCross
	L["link.boundary_ns_per_crossing"] = c.boundaryCross

	per := func(calls float64) float64 { return calls / in.pktHops }
	linkSelf := pos(c.linkPkt - 2*c.simSmall)
	devSelf := pos(c.devRecv - c.linkPkt - c.coreExec)
	sendSelf := pos(c.hostSend - c.linkPkt)
	// The transport rig runs one pacing event, one send, one link
	// traversal (inside hostSend) and one receive per packet.
	transSelf := pos(c.transportPkt - c.hostSend - c.hostRecv - c.simSmall)
	workSelf := pos(c.workloadPkt - c.hostSend - c.workloadEvs*c.simSmall)
	shardSelf := pos(c.shardCross - 2*c.simSmall)

	rows := map[string]float64{
		"sim":       c.simEvent * per(in.events),
		"link":      linkSelf + pos(c.boundaryCross-c.shardCross)*per(in.crossings),
		"device":    devSelf * per(in.swRx),
		"core":      c.coreExec * per(in.execs),
		"host":      sendSelf*per(in.hostTx) + c.hostRecv*per(in.hostRx),
		"transport": transSelf * per(in.sinkPkts), // one source tick and one sink delivery each
		"workload":  workSelf * per(in.genPkts),
		"telemetry": c.telemetryRec*per(in.records) + pos(c.captureRec)*per(in.captured),
		"sim.shard": shardSelf * per(in.crossings),
	}
	var sum float64
	for _, l := range ledgerLayers {
		L[l+".ns_per_pkt_hop"] = rows[l]
		sum += rows[l]
	}
	L["testbed.attribution_residual_pct"] = 100 * (nsHop - sum) / nsHop
}
