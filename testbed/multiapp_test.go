package testbed_test

// Multi-app composition: several minion applications attached to the same
// network must coexist under the control plane's memory-grant isolation —
// one app's TPPs cannot touch another's switch registers, and per-app wire
// IDs keep their telemetry streams from crossing.

import (
	"testing"

	"minions/apps/ndb"
	"minions/apps/rcp"
	"minions/internal/mem"
	"minions/testbed"
	"minions/tpp"
	"minions/tppnet"
	"minions/tppnet/app"
)

func TestMultiAppCompositionNdbPlusRCP(t *testing.T) {
	n := testbed.NewNet(testbed.SimOpts{Seed: 42})
	hosts, _ := n.Chain(100)

	// App 1: RCP* — allocates two per-link registers and write grants.
	sys := rcp.New(rcp.Config{CapacityMbps: 100})
	if err := sys.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	// App 2: ndb packet histories on all UDP data traffic.
	d := ndb.New(ndb.Config{Filter: testbed.FilterSpec{Proto: tppnet.ProtoUDP}, Hosts: hosts})
	if err := d.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	if sys.ID().Wire == d.ID().Wire {
		t.Fatal("two attached apps share a wire handle")
	}

	rates := app.Collect(sys.Rates())

	// One RCP-controlled flow; packets sized so the ndb TPP also fits.
	sink := tppnet.NewSink(n.Hosts[4], 7001, tppnet.ProtoUDP)
	udp := tppnet.NewUDPFlow(n.Hosts[1], hosts[4].ID(), 7001, 7001, 1200)
	fl := sys.NewFlow(n.Hosts[1], hosts[4].ID(), udp)
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	n.RunUntil(2 * testbed.Second)
	if err := sys.Stop(); err != nil {
		t.Fatal(err)
	}
	n.Run()

	// Both applications ran concurrently.
	if fl.Updates == 0 {
		t.Error("RCP performed no versioned updates alongside ndb")
	}
	if len(*rates) == 0 {
		t.Error("RCP rate stream published nothing")
	}
	if d.Collector.Len() == 0 {
		t.Fatal("ndb collected no histories alongside RCP")
	}

	// Telemetry must not cross: ndb's aggregator sees exactly the
	// instrumented data packets the sink received — RCP's control TPPs
	// (standalone probes under a different wire ID, 5-word hop records)
	// never reach ndb's collector.
	if got, want := d.Collector.Len(), int(sink.Packets); got != want {
		t.Errorf("ndb histories = %d, delivered data packets = %d: streams crossed", got, want)
	}
	for _, h := range d.Collector.Drops() {
		t.Errorf("unexpected drop history: %+v", h)
	}
	// Every history carries ndb's own 3-word hop records: host 1 to host 4
	// crosses switches s1 and s2 of the chain.
	for _, h := range d.Collector.ByFlow(tppnet.FlowKey{
		Src: n.Hosts[1].ID(), Dst: hosts[4].ID(), SrcPort: 7001, DstPort: 7001, Proto: tppnet.ProtoUDP,
	})[:1] {
		if h.Path() != "1>2" {
			t.Errorf("history path = %q, want 1>2", h.Path())
		}
	}

	// Grant isolation: find one of RCP's granted write addresses and verify
	// ndb cannot pass static analysis (or the dataplane write filter) for it.
	var rcpAddr mem.Addr
	for _, seg := range n.CP.Policy().Segments() {
		if seg.AppID == sys.ID().ID && seg.Op&mem.OpWrite != 0 &&
			seg.Start >= mem.DynOutLinkBase+mem.LinkAppSpecific0 &&
			seg.Start < mem.DynOutLinkBase+mem.LinkAppSpecific0+8 {
			rcpAddr = seg.Start
			break
		}
	}
	if rcpAddr == 0 {
		t.Fatal("no RCP write grant found in the dynamic out-link window")
	}
	steal := &tpp.Program{
		Mode:     tpp.AddrStack,
		MemWords: 1,
		Insns:    []tpp.Instruction{{Op: tpp.OpSTORE, A: 0, Addr: rcpAddr}},
	}
	if err := n.CP.ValidateProgram(sys.ID(), steal); err != nil {
		t.Errorf("RCP's own write rejected: %v", err)
	}
	if err := n.CP.ValidateProgram(d.ID(), steal); err == nil {
		t.Error("ndb passed static analysis writing RCP's register")
	}
	allow := n.CP.SwitchWritePolicy()
	if !allow(sys.ID().Wire, rcpAddr) {
		t.Error("dataplane filter denies RCP its own register")
	}
	if allow(d.ID().Wire, rcpAddr) {
		t.Error("dataplane filter lets ndb write RCP's register")
	}

	// Teardown composes too: closing ndb frees its resources while RCP's
	// grants survive untouched.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.CP.ValidateProgram(sys.ID(), steal); err != nil {
		t.Errorf("closing ndb disturbed RCP's grants: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
