package device

import (
	"testing"

	"minions/internal/asm"
	"minions/internal/core"
	"minions/internal/link"
	"minions/internal/mem"
	"minions/internal/sim"
)

// sink collects packets delivered to a host-like endpoint.
type sink struct {
	eng  *sim.Engine
	pkts []*link.Packet
	at   []sim.Time
}

func (s *sink) Receive(p *link.Packet, port int) {
	s.pkts = append(s.pkts, p)
	s.at = append(s.at, s.eng.Now())
}

// line builds host(100) -> sw1 -> sw2 -> host(200) with 100 Mb/s links and
// returns the pieces. Ports: sw.0 faces upstream, sw.1 faces downstream.
func line(t *testing.T) (*sim.Engine, *Switch, *Switch, *sink, func(p *link.Packet)) {
	t.Helper()
	eng := sim.New(1)
	sw1 := New(eng, Config{ID: 1, NumPorts: 4, NodeID: 1001, VendorID: 0xB0})
	sw2 := New(eng, Config{ID: 2, NumPorts: 4, NodeID: 1002, VendorID: 0xB0})
	dst := &sink{eng: eng}

	cfg := link.Config{RateBps: 100_000_000, Delay: sim.Microsecond}
	l12 := link.New(eng, cfg, sw2, 0)
	l2h := link.New(eng, cfg, dst, 0)
	sw1.AttachLink(1, l12, 112)
	sw2.AttachLink(1, l2h, 210)

	// Upstream links (for echoes back toward the source host).
	src := &sink{eng: eng}
	l1h := link.New(eng, cfg, src, 0)
	sw1.AttachLink(0, l1h, 110)
	l21 := link.New(eng, cfg, sw1, 1)
	sw2.AttachLink(0, l21, 211)

	sw1.AddRoute(200, 1)
	sw2.AddRoute(200, 1)
	sw1.AddRoute(100, 0)
	sw2.AddRoute(100, 0)
	sw1.AddRoute(1002, 1) // targeted TPPs to sw2

	inject := func(p *link.Packet) { sw1.Receive(p, 0) }
	return eng, sw1, sw2, dst, inject
}

func mkPacket(tpp core.Section) *link.Packet {
	return &link.Packet{
		Flow: link.FlowKey{Src: 100, Dst: 200, SrcPort: 7, DstPort: 8, Proto: link.ProtoUDP},
		Size: 1000,
		TTL:  64,
		TPP:  tpp,
	}
}

func TestForwardingAndPerHopExecution(t *testing.T) {
	eng, _, _, dst, inject := line(t)
	prog := asm.MustAssemble(`
		PUSH [Switch:SwitchID]
		PUSH [PacketMetadata:InputPort]
		PUSH [PacketMetadata:OutputPort]
	`)
	s, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	inject(mkPacket(s))
	eng.Run()

	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	got := dst.pkts[0]
	views := got.TPP.StackView(3)
	if len(views) != 2 {
		t.Fatalf("hops recorded: %d", len(views))
	}
	// Hop 1: switch 1, in port 0, out port 1. Hop 2: switch 2, same shape.
	if views[0].Words[0] != 1 || views[0].Words[1] != 0 || views[0].Words[2] != 1 {
		t.Errorf("hop1: %v", views[0].Words)
	}
	if views[1].Words[0] != 2 || views[1].Words[1] != 0 || views[1].Words[2] != 1 {
		t.Errorf("hop2: %v", views[1].Words)
	}
	if got.Hops != 2 {
		t.Errorf("Hops = %d", got.Hops)
	}
}

func TestPacketConsistentQueueSnapshot(t *testing.T) {
	// Two packets sent back to back: the second must observe the first
	// still queued/serializing at sw1's egress — a per-packet-consistent
	// snapshot no polling scheme could produce.
	eng, _, _, dst, inject := line(t)
	prog := asm.MustAssemble(`PUSH [Link:Queued-Packets]`)
	mk := func() core.Section {
		s, err := prog.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	inject(mkPacket(mk()))
	inject(mkPacket(mk()))
	inject(mkPacket(mk()))
	eng.Run()

	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	occupancies := []uint32{
		dst.pkts[0].TPP.Word(0),
		dst.pkts[1].TPP.Word(0),
		dst.pkts[2].TPP.Word(0),
	}
	// First packet: empty queue, starts serializing at once. Second: the
	// first is on the wire (not queued), so it also sees 0. Third: the
	// second is still queued behind the serializing first — occupancy 1.
	if occupancies[0] != 0 || occupancies[1] != 0 || occupancies[2] != 1 {
		t.Errorf("queue snapshots: %v", occupancies)
	}
}

func TestTTLExpiry(t *testing.T) {
	eng, sw1, _, dst, inject := line(t)
	p := mkPacket(nil)
	p.TTL = 1 // dies at the second switch
	inject(p)
	eng.Run()
	if len(dst.pkts) != 0 {
		t.Fatal("TTL-expired packet delivered")
	}
	_ = sw1
}

func TestNoRouteDrop(t *testing.T) {
	eng, sw1, _, _, inject := line(t)
	p := mkPacket(nil)
	p.Flow.Dst = 999
	inject(p)
	eng.Run()
	if sw1.Drops(DropNoRoute) != 1 {
		t.Errorf("no-route drops = %d", sw1.Drops(DropNoRoute))
	}
}

func TestECMPSpreadsAndIsFlowStable(t *testing.T) {
	eng := sim.New(1)
	sw := New(eng, Config{ID: 1, NumPorts: 4, NodeID: 1001})
	a := &sink{eng: eng}
	b := &sink{eng: eng}
	cfg := link.Config{RateBps: 1_000_000_000}
	sw.AttachLink(1, link.New(eng, cfg, a, 0), 1)
	sw.AttachLink(2, link.New(eng, cfg, b, 0), 2)
	sw.AddRoute(200, 1, 2)

	for i := 0; i < 200; i++ {
		p := &link.Packet{
			Flow: link.FlowKey{Src: 100, Dst: 200, SrcPort: uint16(i), DstPort: 80, Proto: 6},
			Size: 100, TTL: 8,
		}
		sw.Receive(p, 0)
	}
	eng.Run()
	if len(a.pkts) == 0 || len(b.pkts) == 0 {
		t.Fatalf("ECMP did not spread: %d vs %d", len(a.pkts), len(b.pkts))
	}
	if len(a.pkts)+len(b.pkts) != 200 {
		t.Fatalf("lost packets: %d", len(a.pkts)+len(b.pkts))
	}

	// Same flow, same path — always.
	eng2 := sim.New(1)
	sw2 := New(eng2, Config{ID: 1, NumPorts: 4, NodeID: 1001})
	a2 := &sink{eng: eng2}
	b2 := &sink{eng: eng2}
	sw2.AttachLink(1, link.New(eng2, cfg, a2, 0), 1)
	sw2.AttachLink(2, link.New(eng2, cfg, b2, 0), 2)
	sw2.AddRoute(200, 1, 2)
	for i := 0; i < 50; i++ {
		p := &link.Packet{
			Flow: link.FlowKey{Src: 100, Dst: 200, SrcPort: 7, DstPort: 80, Proto: 6},
			Size: 100, TTL: 8,
		}
		sw2.Receive(p, 0)
	}
	eng2.Run()
	if len(a2.pkts) != 0 && len(b2.pkts) != 0 {
		t.Error("one flow split across ECMP paths")
	}
}

func TestPathTagSteersFlow(t *testing.T) {
	// The CONGA* mechanism: changing PathTag changes the ECMP bucket for
	// the same flow (eventually — tags hash, so try several).
	eng := sim.New(1)
	sw := New(eng, Config{ID: 1, NumPorts: 4, NodeID: 1001})
	a := &sink{eng: eng}
	b := &sink{eng: eng}
	cfg := link.Config{RateBps: 1_000_000_000}
	sw.AttachLink(1, link.New(eng, cfg, a, 0), 1)
	sw.AttachLink(2, link.New(eng, cfg, b, 0), 2)
	sw.AddRoute(200, 1, 2)

	flow := link.FlowKey{Src: 100, Dst: 200, SrcPort: 7, DstPort: 80, Proto: 17}
	seen := map[int]bool{}
	for tag := uint16(0); tag < 16; tag++ {
		if flow.Hash(tag)%2 == 0 {
			seen[1] = true
		} else {
			seen[2] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatal("no tag in 0..15 switches the path; hash too weak")
	}
}

func TestCStoreWriteAndReadBack(t *testing.T) {
	// RCP-style: one TPP CSTOREs a new rate into AppSpecific_0 on every hop,
	// a second TPP reads it back.
	eng, sw1, sw2, dst, inject := line(t)
	upd := asm.MustAssemble(`
		.hops 2
		CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
		.word 0 77 0 77
	`)
	us, err := upd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	inject(mkPacket(us))
	eng.Run()
	if got := sw1.Port(1).AppSpecific(0); got != 77 {
		t.Fatalf("sw1 AppSpecific_0 = %d", got)
	}
	if got := sw2.Port(1).AppSpecific(0); got != 77 {
		t.Fatalf("sw2 AppSpecific_0 = %d", got)
	}

	rd := asm.MustAssemble(`PUSH [Link:AppSpecific_0]`)
	rs, err := rd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	inject(mkPacket(rs))
	eng.Run()
	last := dst.pkts[len(dst.pkts)-1]
	if last.TPP.Word(0) != 77 || last.TPP.Word(1) != 77 {
		t.Errorf("read-back: %d %d", last.TPP.Word(0), last.TPP.Word(1))
	}
}

func TestCStoreVersionConflict(t *testing.T) {
	// Second writer with a stale version must fail and observe the winner's
	// version — the §2.2 concurrency story.
	eng, sw1, _, _, inject := line(t)
	sw1.Port(1).SetAppSpecific(0, 5)

	stale := asm.MustAssemble(`
		.hops 1
		CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
		.word 4 99
	`)
	ss, err := stale.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p := mkPacket(ss)
	inject(p)
	eng.Run()
	if got := sw1.Port(1).AppSpecific(0); got != 5 {
		t.Fatalf("stale CSTORE overwrote: %d", got)
	}
	// Write-back lets the end-host observe the current value (5).
	if p.TPP.Word(0) != 5 {
		t.Errorf("write-back = %d, want 5", p.TPP.Word(0))
	}
}

func TestWritePolicyEnforced(t *testing.T) {
	eng, sw1, sw2, _, inject := line(t)
	// Only app 42 may write AppSpecific registers.
	pol := func(appID uint16, a mem.Addr) bool { return appID == 42 }
	sw1.SetWritePolicy(pol)
	sw2.SetWritePolicy(pol)

	prog := asm.MustAssemble(`
		.appid 7
		.hops 2
		CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
		.word 0 123 0 123
	`)
	s, _ := prog.Encode()
	inject(mkPacket(s))
	eng.Run()
	if got := sw1.Port(1).AppSpecific(0); got != 0 {
		t.Fatalf("denied app wrote anyway: %d", got)
	}

	prog2 := asm.MustAssemble(`
		.appid 42
		.hops 2
		CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
		.word 0 123 0 123
	`)
	s2, _ := prog2.Encode()
	inject(mkPacket(s2))
	eng.Run()
	if got := sw1.Port(1).AppSpecific(0); got != 123 {
		t.Fatalf("authorized app denied: %d", got)
	}
}

func TestDenyAllWritesKillSwitch(t *testing.T) {
	eng, sw1, _, _, inject := line(t)
	sw1.SetDenyAllWrites(true)
	prog := asm.MustAssemble(`
		.hops 2
		CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
		.word 0 9 0 9
	`)
	s, _ := prog.Encode()
	inject(mkPacket(s))
	eng.Run()
	if got := sw1.Port(1).AppSpecific(0); got != 0 {
		t.Fatalf("kill switch bypassed: %d", got)
	}
}

func TestTargetedStandaloneTPPEchoes(t *testing.T) {
	// §4.4: send a standalone TPP addressed to switch 2; it executes there
	// and returns to the source without reaching any host.
	eng, _, _, dst, inject := line(t)
	prog := asm.MustAssemble(`PUSH [Switch:SwitchID]`)
	s, _ := prog.Encode()
	p := &link.Packet{
		Flow:       link.FlowKey{Src: 100, Dst: 1002, SrcPort: 9, DstPort: 0x6666, Proto: link.ProtoUDP},
		Size:       64,
		TTL:        64,
		TPP:        s,
		Standalone: true,
	}
	inject(p)
	eng.Run()
	if len(dst.pkts) != 0 {
		t.Fatal("targeted TPP leaked past the target switch")
	}
	// It should have been echoed: flow reversed toward 100 and flagged.
	if p.Flow.Dst != 100 {
		t.Fatalf("not bounced: dst=%d", p.Flow.Dst)
	}
	if p.TPP.Flags()&core.FlagEchoed == 0 {
		t.Error("echo flag not set")
	}
	// Executed exactly at sw1 (en route) and sw2 (target)? No: targeted
	// TPPs execute at every hop they traverse; words hold sw1, sw2, sw1.
	if p.TPP.Word(0) != 1 || p.TPP.Word(1) != 2 {
		t.Errorf("switch IDs: %d %d", p.TPP.Word(0), p.TPP.Word(1))
	}
}

func TestReflectFlagBouncesAtFirstSwitch(t *testing.T) {
	eng, sw1, _, dst, inject := line(t)
	sw1.cfg.ReflectTPPs = true
	prog := asm.MustAssemble(`
		.flags reflect
		PUSH [Switch:SwitchID]
	`)
	s, _ := prog.Encode()
	p := mkPacket(s)
	p.Standalone = true
	inject(p)
	eng.Run()
	if len(dst.pkts) != 0 {
		t.Fatal("reflected TPP reached destination")
	}
	if p.Flow.Dst != 100 || p.TPP.Word(0) != 1 {
		t.Errorf("reflection wrong: dst=%d id=%d", p.Flow.Dst, p.TPP.Word(0))
	}
}

func TestInBandRouteUpdate(t *testing.T) {
	// §2.6 fast network updates: STORE dst and port into the vendor route
	// registers; the route is installed as the packet passes.
	eng, sw1, sw2, dst, inject := line(t)
	if sw1.Route(777) != nil {
		t.Fatal("route 777 pre-exists")
	}
	v1 := sw1.Version()
	prog := asm.MustAssemble(`
		.mode stack
		.mem 2
		STORE [Vendor#0:], [Packet:0]
		STORE [Vendor#1:], [Packet:1]
		.word 777 1
	`)
	s, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	inject(mkPacket(s))
	eng.Run()

	for _, sw := range []*Switch{sw1, sw2} {
		if sw.Route(777) == nil {
			t.Fatalf("switch %d: route not installed", sw.ID())
		}
		if ports := sw.RoutePorts(777); len(ports) != 1 || ports[0] != 1 {
			t.Errorf("switch %d: route ports %v", sw.ID(), ports)
		}
	}
	if sw1.Version() <= v1 {
		t.Error("version not bumped by in-band update")
	}
	_ = dst
}

func TestDropNotification(t *testing.T) {
	// Overflow sw1's egress queue with DropNotify TPPs and expect clones at
	// the collector.
	eng := sim.New(1)
	sw := New(eng, Config{ID: 1, NumPorts: 2, NodeID: 1001})
	dst := &sink{eng: eng}
	l := link.New(eng, link.Config{RateBps: 1_000_000, QueueBytes: 2500}, dst, 0)
	sw.AttachLink(1, l, 11)
	sw.AddRoute(200, 1)

	var collected []*link.Packet
	sw.DropNotifies().Subscribe(func(ev DropEvent) {
		if ev.Reason == DropQueueFull {
			collected = append(collected, ev.Packet)
		}
	})
	prog := asm.MustAssemble(`
		.flags dropnotify
		PUSH [Switch:SwitchID]
	`)
	for i := 0; i < 6; i++ {
		s, _ := prog.Encode()
		p := mkPacket(s)
		sw.Receive(p, 0)
	}
	eng.Run()
	if len(collected) == 0 {
		t.Fatal("no drop notifications")
	}
	if len(dst.pkts)+len(collected) != 6 {
		t.Errorf("accounting: %d delivered + %d collected != 6", len(dst.pkts), len(collected))
	}
}

func TestFlowEntryAndStageStats(t *testing.T) {
	eng, sw1, _, dst, inject := line(t)
	prog := asm.MustAssemble(`
		PUSH [FlowEntry:MatchPkts]
		PUSH [Stage:Version]
		PUSH [Stage:RefCount]
	`)
	s, _ := prog.Encode()
	inject(mkPacket(s))
	eng.Run()
	got := dst.pkts[0]
	// First matched packet on that entry.
	if got.TPP.Word(0) != 1 {
		t.Errorf("entry match pkts = %d", got.TPP.Word(0))
	}
	if got.TPP.Word(1) == 0 {
		t.Error("stage version reads zero")
	}
	if got.TPP.Word(2) != 3 {
		// line() installs 3 routes on sw1: 200, 100, 1002.
		t.Errorf("refcount = %d", got.TPP.Word(2))
	}
	_ = sw1
}

func TestControlPlaneReadRegister(t *testing.T) {
	eng, sw1, _, _, _ := line(t)
	_ = eng
	if v, ok := sw1.ReadRegister(mem.SwSwitchID); !ok || v != 1 {
		t.Errorf("SwitchID = %d, %v", v, ok)
	}
	if _, ok := sw1.ReadRegister(mem.DynOutLinkBase + mem.LinkTXUtil); ok {
		t.Error("dynamic window readable without packet context")
	}
	if v, ok := sw1.ReadRegister(mem.LinkAddr(1, mem.LinkID)); !ok || v != 112 {
		t.Errorf("Link#1:ID = %d, %v", v, ok)
	}
}

func TestOutputPortRewrite(t *testing.T) {
	// A TPP STORE to [PacketMetadata:OutputPort] re-routes the packet.
	eng := sim.New(1)
	sw := New(eng, Config{ID: 1, NumPorts: 3, NodeID: 1001})
	a := &sink{eng: eng}
	b := &sink{eng: eng}
	cfg := link.Config{RateBps: 1_000_000_000}
	sw.AttachLink(1, link.New(eng, cfg, a, 0), 1)
	sw.AttachLink(2, link.New(eng, cfg, b, 0), 2)
	sw.AddRoute(200, 1) // normal route: port 1

	prog := asm.MustAssemble(`
		.mem 1
		STORE [PacketMetadata:OutputPort], [Packet:0]
		.word 2
	`)
	s, _ := prog.Encode()
	p := mkPacket(s)
	sw.Receive(p, 0)
	eng.Run()
	if len(b.pkts) != 1 || len(a.pkts) != 0 {
		t.Fatalf("rewrite ignored: a=%d b=%d", len(a.pkts), len(b.pkts))
	}
}

func TestVendorScratch(t *testing.T) {
	eng, sw1, _, _, _ := line(t)
	_ = eng
	sw1.SetVendorReg(VendorScratchBase+1, 0xCAFE)
	if v, ok := sw1.ReadRegister(VendorScratchBase + 1); !ok || v != 0xCAFE {
		t.Errorf("vendor scratch = %#x, %v", v, ok)
	}
}

// AttachLink must leave a subscriber that was on the link's DropEvents before
// wiring in place, must not subscribe its own accounting twice when
// re-attached, and must republish the link's drops on the switch's stream.
func TestAttachLinkChainsAndIsIdempotent(t *testing.T) {
	eng := sim.New(1)
	sw := New(eng, Config{ID: 1, NumPorts: 2, NodeID: 1001})
	dst := &sink{eng: eng}
	l := link.New(eng, link.Config{RateBps: 1_000_000, QueueBytes: 1000}, dst, 0)

	observed, republished := 0, 0
	l.DropEvents().Subscribe(func(link.DropEvent) { observed++ }) // pre-wiring instrumentation
	sw.DropEvents().Subscribe(func(ev DropEvent) {
		if ev.Reason == DropQueueFull {
			republished++
		}
	})
	sw.AttachLink(0, l, 1)
	sw.AttachLink(0, l, 2) // re-attach: must not subscribe linkDrop again
	if got := sw.Port(0).LinkID; got != 2 {
		t.Fatalf("re-attach did not update LinkID: %d", got)
	}

	// First packet serializes immediately; next fills the queue; third drops.
	for i := 0; i < 3; i++ {
		l.Enqueue(&link.Packet{ID: uint64(i), Size: 1000})
	}
	if observed != 1 {
		t.Errorf("pre-wiring subscriber saw %d drops, want 1", observed)
	}
	if got := sw.Drops(DropQueueFull); got != 1 {
		t.Errorf("switch counted %d queue drops, want 1 (subscribed twice?)", got)
	}
	if republished != 1 {
		t.Errorf("switch DropEvents carried %d queue drops, want 1", republished)
	}
}
