package testbed_test

import (
	"testing"

	"minions/testbed"
	"minions/tpp"
	"minions/tppnet"
)

func TestPublicEndToEnd(t *testing.T) {
	n := testbed.NewNet(testbed.SimOpts{Seed: 1})
	s1, s2 := n.AddSwitch(4), n.AddSwitch(4)
	h1, h2 := n.AddHost(), n.AddHost()
	cfg := tppnet.HostLink(1000)
	n.Connect(h1, s1, cfg)
	n.Connect(h2, s2, cfg)
	n.Connect(s1, s2, cfg)
	n.ComputeRoutes()

	prog := tpp.MustAssemble(`PUSH [Switch:SwitchID]`)
	app := n.CP.RegisterApp("t")
	if _, err := h1.AddTPP(app, testbed.FilterSpec{Proto: 17}, prog, 1, 0); err != nil {
		t.Fatal(err)
	}
	hops := 0
	h2.RegisterAggregator(app.Wire, func(p *testbed.Packet, v tpp.Section) {
		hops = v.HopOrSP()
	})
	h2.Bind(9000, 17, func(p *testbed.Packet) {})
	h1.Send(h1.NewPacket(h2.ID(), 1, 9000, 17, 500))
	n.Eng.Run()
	if hops != 2 {
		t.Fatalf("executed on %d hops, want 2", hops)
	}
}

func TestRunnersSmoke(t *testing.T) {
	// Tiny-scale smoke of each experiment runner the benchmarks rely on.
	if _, err := testbed.RunFig1(testbed.Fig1Config{Duration: 200 * testbed.Millisecond}); err != nil {
		t.Error(err)
	}
	if _, err := testbed.RunFig2(2*testbed.Second, testbed.SimOpts{Seed: 1}); err != nil {
		t.Error(err)
	}
	if _, err := testbed.RunFig4(2*testbed.Second, testbed.SimOpts{Seed: 1}); err != nil {
		t.Error(err)
	}
	if _, err := testbed.RunSec23(); err != nil {
		t.Error(err)
	}
	if _, err := testbed.RunSec25(); err != nil {
		t.Error(err)
	}
	if out := testbed.HardwareTables(); out == "" {
		t.Error("empty hardware tables")
	}
	if out := testbed.Sec21Table(); out == "" {
		t.Error("empty sec21 table")
	}
	if _, err := testbed.RunShim(testbed.ShimConfig{Rules: 2, SampleFreq: 1, Packets: 10_000}); err != nil {
		t.Error(err)
	}
	rows, err := testbed.RunSec22([]int{3}, testbed.Second, 1)
	if err != nil || len(rows) != 1 {
		t.Errorf("sec22: %v %v", rows, err)
	}
}

func TestShimAttachAccounting(t *testing.T) {
	res, err := testbed.RunShim(testbed.ShimConfig{
		Rules: 1, Match: "first", SampleFreq: 10, Flows: 2, Packets: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AttachFrac < 0.08 || res.AttachFrac > 0.12 {
		t.Errorf("attach fraction = %.3f, want ~0.10", res.AttachFrac)
	}
	if res.NetGbps <= res.GoodputGbps {
		t.Error("net throughput should exceed goodput")
	}
}
