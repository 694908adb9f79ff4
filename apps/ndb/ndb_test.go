package ndb_test

import (
	"testing"

	"minions/apps/ndb"
	"minions/telemetry"
	"minions/tppnet"
	"minions/tppnet/app"
	"minions/tppnet/faults"
)

func deploy(t *testing.T) (*tppnet.Network, *ndb.Deployment) {
	t.Helper()
	n := tppnet.NewNetwork(tppnet.WithSeed(1))
	hosts, _, _ := n.Dumbbell(4, 1000)
	d := ndb.New(ndb.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hosts,
	})
	if err := d.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	return n, d
}

func TestPacketHistoriesCollected(t *testing.T) {
	n, d := deploy(t)
	h0, h3 := n.Hosts[0], n.Hosts[3] // opposite sides of the dumbbell
	h3.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	for i := 0; i < 5; i++ {
		h0.Send(h0.NewPacket(h3.ID(), 1000, 8000, tppnet.ProtoUDP, 500))
	}
	n.Run()
	if d.Collector.Len() != 5 {
		t.Fatalf("collected %d histories, want 5", d.Collector.Len())
	}
	flow := tppnet.FlowKey{Src: h0.ID(), Dst: h3.ID(), SrcPort: 1000, DstPort: 8000, Proto: tppnet.ProtoUDP}
	hist := d.Collector.ByFlow(flow)
	if len(hist) != 5 {
		t.Fatalf("ByFlow found %d", len(hist))
	}
	// The dumbbell path crosses both switches: 1 then 2.
	if hist[0].Path() != "1>2" {
		t.Errorf("path = %q, want 1>2", hist[0].Path())
	}
	for _, hr := range hist[0].Hops {
		if hr.EntryID == 0 {
			t.Error("matched entry ID missing from history")
		}
	}
}

func TestNdbQueriesBySwitch(t *testing.T) {
	n, d := deploy(t)
	h0, h1, h3 := n.Hosts[0], n.Hosts[1], n.Hosts[3]
	h1.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	h3.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	// Same-side traffic (h0->h1) stays on switch 1; cross traffic visits 2.
	h0.Send(h0.NewPacket(h1.ID(), 1000, 8000, tppnet.ProtoUDP, 300))
	h0.Send(h0.NewPacket(h3.ID(), 1001, 8000, tppnet.ProtoUDP, 300))
	n.Run()
	through2 := d.Collector.TraversedSwitch(2)
	if len(through2) != 1 {
		t.Fatalf("TraversedSwitch(2) = %d, want 1", len(through2))
	}
	if through2[0].Flow.SrcPort != 1001 {
		t.Error("wrong history matched")
	}
}

func TestLossLocalization(t *testing.T) {
	// Overflow the slow inter-switch queue and expect drop histories
	// pinpointing the dropping switch. Each burst is larger than the core
	// queue: drops at the left switch, while the fast host NIC never
	// overflows.
	n, burst := overflowNet(t)
	left := n.Switches[0]
	d := attachNdb(t, n)
	for b := 0; b < 10; b++ {
		burst()
	}
	drops := d.Collector.Drops()
	if len(drops) == 0 {
		t.Fatal("no drop notifications collected")
	}
	for _, dr := range drops {
		if dr.DropAt != left.ID() {
			t.Fatalf("drop located at switch %d, want %d", dr.DropAt, left.ID())
		}
		// The history shows the hops up to the drop point.
		if len(dr.Hops) == 0 || dr.Hops[0].SwitchID != left.ID() {
			t.Errorf("drop history hops: %+v", dr.Hops)
		}
	}
}

func TestNetwatchIsolation(t *testing.T) {
	n, d := deploy(t)
	h0, h1, h3 := n.Hosts[0], n.Hosts[1], n.Hosts[3]
	violations := app.Collect(d.Watch(ndb.IsolationPolicy(
		map[tppnet.NodeID]bool{h0.ID(): true},
		map[tppnet.NodeID]bool{h3.ID(): true},
	)))
	h1.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	h3.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	h0.Send(h0.NewPacket(h1.ID(), 1, 8000, tppnet.ProtoUDP, 200)) // allowed
	h0.Send(h0.NewPacket(h3.ID(), 2, 8000, tppnet.ProtoUDP, 200)) // violates
	n.Run()
	if len(*violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(*violations))
	}
	if (*violations)[0].Policy != "isolation" {
		t.Errorf("policy = %q", (*violations)[0].Policy)
	}
}

func TestNetwatchWaypointAndLoop(t *testing.T) {
	n, d := deploy(t)
	h0, h1 := n.Hosts[0], n.Hosts[1]
	violations := app.Collect(d.Watch(
		ndb.WaypointPolicy(2), // require crossing switch 2
		ndb.LoopPolicy(),
	))
	h1.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	// h0 -> h1 stays on switch 1: waypoint violation, no loop.
	h0.Send(h0.NewPacket(h1.ID(), 1, 8000, tppnet.ProtoUDP, 200))
	n.Run()
	if len(*violations) != 1 || (*violations)[0].Policy != "waypoint" {
		t.Fatalf("violations: %+v", *violations)
	}
}

func TestOverheadAccounting(t *testing.T) {
	// §2.3: "The instruction overhead is 12 bytes/packet and 6 bytes of
	// per-hop data. With a TPP header and space for 10 hops, this is 84
	// bytes/packet." Our 32-bit words double the per-hop data (12 B/hop):
	// 12 + 12 + 120 = 144. Structure identical; both yield <15% at 1000 B.
	got := ndb.OverheadBytes(10)
	if got != 144 {
		t.Errorf("overhead = %d, want 144", got)
	}
	if frac := float64(got) / 1000; frac > 0.15 {
		t.Errorf("bandwidth overhead %.1f%% implausible", frac*100)
	}
}

func TestSampledDeploymentCollectsSubset(t *testing.T) {
	n := tppnet.NewNetwork(tppnet.WithSeed(1))
	hosts, _, _ := n.Dumbbell(4, 1000)
	d := ndb.New(ndb.Config{
		Filter:     tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		SampleFreq: 10,
		Hosts:      hosts,
	})
	if err := d.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	h0, h3 := n.Hosts[0], n.Hosts[3]
	h3.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	for i := 0; i < 100; i++ {
		h0.Send(h0.NewPacket(h3.ID(), 1000, 8000, tppnet.ProtoUDP, 500))
	}
	n.Run()
	if got := d.Collector.Len(); got != 10 {
		t.Errorf("sampled collection = %d histories, want 10", got)
	}
}

// overflowNet is TestLossLocalization's topology — fast host links into a
// shallow 10 Mb/s core — plus burst, which overflows the core queue at the
// left switch and runs the network dry.
func overflowNet(t *testing.T) (n *tppnet.Network, burst func()) {
	t.Helper()
	n = tppnet.NewNetwork(tppnet.WithSeed(2))
	left, right := n.AddSwitch(4), n.AddSwitch(4)
	for i := 0; i < 4; i++ {
		sw := left
		if i >= 2 {
			sw = right
		}
		n.Connect(n.AddHost(), sw, tppnet.HostLink(1000))
	}
	n.Connect(left, right, tppnet.LinkConfig{RateBps: 10_000_000, Delay: 5 * tppnet.Microsecond, QueueBytes: 20_000})
	n.ComputeRoutes()
	h0, h3 := n.Hosts[0], n.Hosts[3]
	h3.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	return n, func() {
		for i := 0; i < 50; i++ {
			h0.Send(h0.NewPacket(h3.ID(), 1000, 8000, tppnet.ProtoUDP, 1300))
		}
		n.Run()
	}
}

func attachNdb(t *testing.T, n *tppnet.Network) *ndb.Deployment {
	t.Helper()
	d := ndb.New(ndb.Config{Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP}})
	if err := d.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	return d
}

func switchDrops(n *tppnet.Network) (total uint64) {
	for _, sw := range n.Switches {
		for r := tppnet.DropReason(0); r < 32; r++ { // Drops is 0 past the last reason
			total += sw.Drops(r)
		}
	}
	return total
}

// TestDropHookChainsAndSurvivesClose: a subscriber that was on a switch's
// DropNotifies before Attach keeps seeing every mirrored drop, during the
// deployment and after its Close, and 100 further Attach/Close cycles
// leave it seeing each drop exactly once while the closed deployments
// collect nothing.
func TestDropHookChainsAndSurvivesClose(t *testing.T) {
	n, burst := overflowNet(t)
	prior := 0
	n.Switches[0].DropNotifies().Subscribe(func(tppnet.DropEvent) { prior++ })

	d := attachNdb(t, n)
	burst()
	dropped := int(switchDrops(n))
	if dropped == 0 || prior != dropped || len(d.Collector.Drops()) != dropped {
		t.Fatalf("%d drops: prior subscriber saw %d, deployment collected %d", dropped, prior, len(d.Collector.Drops()))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The mirror only clones DropNotify TPPs, so a live deployment has to
	// instrument the traffic for the prior subscriber to have anything to see.
	live := attachNdb(t, n)
	var cycled []*ndb.Deployment
	for i := 0; i < 100; i++ {
		c := attachNdb(t, n)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		cycled = append(cycled, c)
	}
	burst()
	dropped2 := int(switchDrops(n)) - dropped
	if dropped2 == 0 || prior != dropped+dropped2 {
		t.Fatalf("after Close and 100 cycles: %d new drops, prior subscriber saw %d", dropped2, prior-dropped)
	}
	if got := len(live.Collector.Drops()); got != dropped2 {
		t.Errorf("live deployment collected %d drops, want %d", got, dropped2)
	}
	if got := len(d.Collector.Drops()); got != dropped {
		t.Errorf("closed deployment went from %d to %d drop histories", dropped, got)
	}
	for _, c := range cycled {
		if c.Collector.Len() != 0 {
			t.Fatalf("a closed deployment collected %d histories", c.Collector.Len())
		}
	}
}

// TestDropObserversCancelInInstallOrder composes two ExportDrops pipelines
// and a deployment on one network and tears them down first-installed
// first: each survivor must go on seeing every drop.
func TestDropObserversCancelInInstallOrder(t *testing.T) {
	n, burst := overflowNet(t)
	var sinkA, sinkB telemetry.MemSink
	newPipe := func(sink *telemetry.MemSink) *telemetry.Pipeline {
		pipe := telemetry.NewPipeline(telemetry.Config{Spool: 1 << 12, Policy: telemetry.Block})
		pipe.Attach(sink)
		return pipe
	}
	pipeA, pipeB := newPipe(&sinkA), newPipe(&sinkB)
	cancelA := faults.ExportDrops(n, pipeA)
	cancelB := faults.ExportDrops(n, pipeB)
	d := attachNdb(t, n)
	seen := func() (a, b, hist int) {
		pipeA.Flush()
		pipeB.Flush()
		return len(sinkA.Records), len(sinkB.Records), len(d.Collector.Drops())
	}

	burst()
	all := int(switchDrops(n))
	if a, b, hist := seen(); all == 0 || a != all || b != all || hist != all {
		t.Fatalf("%d drops: pipelines saw %d and %d, deployment %d", all, a, b, hist)
	}

	cancelA()
	burst()
	all2 := int(switchDrops(n))
	if a, b, hist := seen(); all2 == all || a != all || b != all2 || hist != all2 {
		t.Fatalf("first pipeline cancelled, %d drops: pipelines saw %d (want %d) and %d, deployment %d", all2, a, all, b, hist)
	}

	cancelB()
	burst()
	all3 := int(switchDrops(n))
	if a, b, hist := seen(); all3 == all2 || a != all || b != all2 || hist != all3 {
		t.Fatalf("both pipelines cancelled, %d drops: pipelines saw %d (want %d) and %d (want %d), deployment %d", all3, a, all, b, all2, hist)
	}
}
