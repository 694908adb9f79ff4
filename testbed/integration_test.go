package testbed_test

import (
	"testing"

	"minions/apps/ndb"
	"minions/internal/host"
	"minions/internal/mem"
	"minions/testbed"
	"minions/tpp"
	"minions/tppnet"
)

// chain builds h0 - s1 - s2 - ... - sN - h1.
func chainN(t *testing.T, switches int) (*testbed.Network, *testbed.Host, *testbed.Host) {
	t.Helper()
	n := testbed.NewNet(testbed.SimOpts{Seed: 3})
	var sws []*testbed.Switch
	for i := 0; i < switches; i++ {
		sws = append(sws, n.AddSwitch(4))
	}
	h0, h1 := n.AddHost(), n.AddHost()
	cfg := tppnet.HostLink(1000)
	n.Connect(h0, sws[0], cfg)
	n.Connect(h1, sws[len(sws)-1], cfg)
	for i := 0; i+1 < len(sws); i++ {
		n.Connect(sws[i], sws[i+1], cfg)
	}
	n.ComputeRoutes()
	return n, h0, h1
}

// TestSplitCollectionAcrossRealNetwork verifies §4.4 "Large TPPs" end to
// end: a 6-switch path whose per-hop records do not fit in one small TPP is
// covered by two window programs whose merged views reconstruct every hop.
func TestSplitCollectionAcrossRealNetwork(t *testing.T) {
	n, h0, h1 := chainN(t, 6)
	app := n.CP.RegisterApp("bigcollect")

	addrs := []mem.Addr{
		mem.SwSwitchID,
		mem.MustResolve("Link:TX-Packets"),
		mem.MustResolve("Queue:QueueOccupancy"),
	}
	// Budget of 9 words => 3-hop windows => 2 programs for 6 hops.
	progs, err := host.SplitCollect(addrs, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("expected 2 window programs, got %d", len(progs))
	}
	views := make([]tpp.Section, len(progs))
	done := 0
	for i, p := range progs {
		i := i
		if err := h0.ExecuteTPP(app, p, h1.ID(), testbed.ExecOpts{}, func(v tpp.Section, err error) {
			if err != nil {
				t.Errorf("window %d: %v", i, err)
				return
			}
			views[i] = v
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	n.Eng.Run()
	if done != 2 {
		t.Fatalf("completed %d windows", done)
	}
	records := host.MergeCollected(progs, views, 6)
	for hop, rec := range records {
		if rec[0] != uint32(hop+1) {
			t.Errorf("hop %d: switch ID %d, want %d", hop, rec[0], hop+1)
		}
	}
}

// TestInBandRerouteObservedByHistories combines §2.6 fast route updates with
// §2.3 packet histories: a TPP installs a detour route in-band, and
// subsequent packet histories show the new path and a bumped table version.
func TestInBandRerouteObservedByHistories(t *testing.T) {
	// Diamond: h0 - s1 - {s2 | s3} - s4 - h1, initially routed via s2.
	n := testbed.NewNet(testbed.SimOpts{Seed: 4})
	s1, s2, s3, s4 := n.AddSwitch(4), n.AddSwitch(4), n.AddSwitch(4), n.AddSwitch(4)
	h0, h1 := n.AddHost(), n.AddHost()
	cfg := tppnet.HostLink(1000)
	n.Connect(h0, s1, cfg)
	n.Connect(s1, s2, cfg)
	n.Connect(s1, s3, cfg)
	n.Connect(s2, s4, cfg)
	n.Connect(s3, s4, cfg)
	n.Connect(h1, s4, cfg)
	n.ComputeRoutes()
	// Pin the initial path via s2 (port 1 on s1).
	if ports := s1.RoutePorts(h1.ID()); len(ports) < 2 {
		t.Fatal("expected ECMP at s1")
	}
	s1.AddRoute(h1.ID(), 1) // via s2
	v0 := s1.Version()

	hosts := []*testbed.Host{h0, h1}
	d := ndb.New(ndb.Config{Filter: testbed.FilterSpec{Proto: 17}, Hosts: hosts})
	if err := d.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	h1.Bind(9000, 17, func(p *testbed.Packet) {})

	h0.Send(h0.NewPacket(h1.ID(), 100, 9000, 17, 400))
	n.Eng.Run()

	// In-band route update (§2.6): a TPP targeted at s1 stores the detour
	// (dst=h1 via port 2 toward s3) into the vendor route registers. The
	// rerouting app needs write grants on those registers.
	routeApp := n.CP.RegisterApp("fastupdate")
	n.CP.GrantWrite(routeApp, mem.VendorBase, mem.VendorBase+2)
	upd := tpp.MustAssemble(`
		.mode stack
		.mem 2
		STORE [Vendor#0:], [Packet:0]
		STORE [Vendor#1:], [Packet:1]
	`)
	upd.InitMem = []uint32{uint32(h1.ID()), 2}
	okExec := false
	if err := h0.ExecuteTPP(routeApp, upd, s1.NodeID(), testbed.ExecOpts{}, func(v tpp.Section, err error) {
		okExec = err == nil
	}); err != nil {
		t.Fatal(err)
	}
	n.Eng.Run()
	if !okExec {
		t.Fatal("route update TPP failed")
	}
	if s1.Version() <= v0 {
		t.Fatal("switch version did not advance after in-band update")
	}

	h0.Send(h0.NewPacket(h1.ID(), 101, 9000, 17, 400))
	n.Eng.Run()

	histories := d.Collector.Query(func(h ndb.History) bool { return !h.Dropped })
	if len(histories) != 2 {
		t.Fatalf("histories = %d", len(histories))
	}
	before, after := histories[0], histories[1]
	if before.Path() != "1>2>4" {
		t.Errorf("pre-update path = %s, want 1>2>4", before.Path())
	}
	if after.Path() != "1>3>4" {
		t.Errorf("post-update path = %s, want 1>3>4", after.Path())
	}
}

// TestCorruptedTPPIsRejectedAtDecode verifies the checksum catches in-flight
// instruction corruption when the end-host decodes an executed TPP.
func TestCorruptedTPPIsRejectedAtDecode(t *testing.T) {
	prog := tpp.MustAssemble(`PUSH [Switch:SwitchID]`)
	sec, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sec[tpp.HeaderLen] ^= 0x40 // flip a bit in the first instruction
	if _, err := tpp.Decode(sec); err == nil {
		t.Fatal("corrupted TPP decoded successfully")
	}
}
