package ndb_test

import (
	"testing"

	"minions/apps/ndb"
	"minions/internal/sim"
	"minions/tppnet"
	"minions/tppnet/app"
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
	// pinpointing the dropping switch: fast host links into a 10 Mb/s core.
	n := tppnet.NewNetwork(tppnet.WithSeed(2))
	left, right := n.AddSwitch(4), n.AddSwitch(4)
	var hostsArr []*tppnet.Host
	for i := 0; i < 4; i++ {
		h := n.AddHost()
		hostsArr = append(hostsArr, h)
		if i < 2 {
			n.Connect(h, left, tppnet.HostLink(1000))
		} else {
			n.Connect(h, right, tppnet.HostLink(1000))
		}
	}
	n.Connect(left, right, tppnet.LinkConfig{
		RateBps:    10_000_000,
		Delay:      5 * tppnet.Microsecond,
		QueueBytes: 20_000, // shallow core queue: bursts overflow here
	})
	n.ComputeRoutes()
	d := ndb.New(ndb.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hostsArr,
	})
	if err := d.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	h0, h3 := n.Hosts[0], n.Hosts[3]
	h3.Bind(8000, tppnet.ProtoUDP, func(p *tppnet.Packet) {})
	// Paced bursts, each larger than the core queue: drops at the left
	// switch, while the fast host NIC never overflows.
	for b := 0; b < 10; b++ {
		n.Eng.Schedule(tppnet.Time(b)*100*tppnet.Millisecond, sim.HandlerFunc(func() {
			for i := 0; i < 50; i++ {
				h0.Send(h0.NewPacket(h3.ID(), 1000, 8000, tppnet.ProtoUDP, 1300))
			}
		}), 0)
	}
	n.RunUntil(2 * tppnet.Second)
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

// TestDropHookChainsAndSurvivesClose: the deployment's switch drop hook
// must pass non-matching packets through to whatever collector was
// installed before Attach, and Close must leave that chain intact (a
// transparent pass-through), so composed apps tear down in any order.
func TestDropHookChainsAndSurvivesClose(t *testing.T) {
	n := tppnet.NewNetwork(tppnet.WithSeed(1))
	hosts, _, _ := n.Dumbbell(4, 1000)
	prior := 0
	sw := n.Switches[0]
	sw.DropCollector = func(p *tppnet.Packet, reason tppnet.DropReason) { prior++ }
	d := ndb.New(ndb.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hosts,
	})
	if err := d.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	if sw.DropCollector == nil {
		t.Fatal("Attach did not install drop mirroring")
	}
	// A dropped packet with no TPP is not ndb's: the prior collector must
	// still see it through the chain.
	sw.DropCollector(&tppnet.Packet{}, 0)
	if prior != 1 {
		t.Fatalf("prior collector saw %d drops through the chain, want 1", prior)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the hook is a transparent pass-through: everything —
	// including packets that would have matched ndb — reaches the prior
	// collector, and the closed deployment collects nothing.
	sw.DropCollector(&tppnet.Packet{}, 0)
	if prior != 2 {
		t.Fatalf("prior collector saw %d drops after Close, want 2", prior)
	}
	if got := d.Collector.Len(); got != 0 {
		t.Errorf("closed deployment collected %d histories", got)
	}
}
