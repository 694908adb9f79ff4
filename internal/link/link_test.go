package link

import (
	"testing"

	"minions/internal/sim"
)

// collector is a Receiver recording arrivals with timestamps.
type collector struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []sim.Time
	port []int
}

func (c *collector) Receive(p *Packet, port int) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
	c.port = append(c.port, port)
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	// 100 Mb/s, 10 us propagation.
	l := New(eng, Config{RateBps: 100_000_000, Delay: 10 * sim.Microsecond}, dst, 3)

	p := &Packet{ID: 1, Size: 1250} // 1250 B at 100 Mb/s = 100 us
	if !l.Enqueue(p) {
		t.Fatal("enqueue failed")
	}
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("got %d packets", len(dst.pkts))
	}
	want := 100*sim.Microsecond + 10*sim.Microsecond
	if dst.at[0] != want {
		t.Errorf("arrival at %d, want %d", dst.at[0], want)
	}
	if dst.port[0] != 3 {
		t.Errorf("port = %d", dst.port[0])
	}
	st := l.Stats()
	if st.TxPackets != 1 || st.TxBytes != 1250 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := New(eng, Config{RateBps: 100_000_000, Delay: 0}, dst, 0)
	for i := 0; i < 3; i++ {
		l.Enqueue(&Packet{ID: uint64(i), Size: 1250})
	}
	if l.QueueLenPackets() != 2 { // head of line is serializing
		t.Errorf("queue length = %d", l.QueueLenPackets())
	}
	eng.Run()
	// Packets arrive at 100, 200, 300 us: serialization is sequential.
	for i, at := range dst.at {
		want := sim.Time(i+1) * 100 * sim.Microsecond
		if at != want {
			t.Errorf("packet %d at %d, want %d", i, at, want)
		}
	}
	if l.Pending() {
		t.Error("link still pending after run")
	}
}

func TestLinkDropTail(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := New(eng, Config{RateBps: 1_000_000, QueueBytes: 3000}, dst, 0)
	var dropped []*Packet
	l.DropEvents().Subscribe(func(ev DropEvent) {
		if ev.Reason != DropQueueFull {
			t.Errorf("drop reason %v, want queue-full", ev.Reason)
		}
		dropped = append(dropped, ev.Packet)
	})

	// 1000-byte packets; first serializes immediately (leaves queue), then
	// 3 fit in the 3000-byte queue, 5th drops.
	accepted := 0
	for i := 0; i < 5; i++ {
		if l.Enqueue(&Packet{ID: uint64(i), Size: 1000}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4", accepted)
	}
	if len(dropped) != 1 || dropped[0].ID != 4 {
		t.Fatalf("dropped: %v", dropped)
	}
	st := l.Stats()
	if st.DropPackets != 1 || st.DropBytes != 1000 {
		t.Errorf("drop stats: %+v", st)
	}
	eng.Run()
	if len(dst.pkts) != 4 {
		t.Errorf("delivered %d", len(dst.pkts))
	}
}

func TestLinkUtilization(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	// 100 Mb/s link: 12500 bytes per ms at full rate.
	l := New(eng, Config{RateBps: 100_000_000}, dst, 0)

	// Offer exactly half rate for 10 ms: one 625-byte packet every 100 us.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		eng.Schedule(at, sim.HandlerFunc(func() { l.Enqueue(&Packet{Size: 625}) }), 0)
	}
	eng.RunUntil(10 * sim.Millisecond)
	util := l.UtilPermille()
	if util < 450 || util > 550 {
		t.Errorf("utilization = %d permille, want ~500", util)
	}

	// After a long idle gap the estimate decays to ~0.
	eng.RunUntil(100 * sim.Millisecond)
	if got := l.UtilPermille(); got > 60 {
		t.Errorf("idle utilization = %d permille", got)
	}
}

func TestLinkUtilizationSaturated(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := New(eng, Config{RateBps: 10_000_000, QueueBytes: 1 << 20}, dst, 0)
	for i := 0; i < 100; i++ {
		l.Enqueue(&Packet{Size: 1500})
	}
	eng.RunUntil(50 * sim.Millisecond)
	if got := l.UtilPermille(); got < 950 || got > 1000 {
		t.Errorf("saturated utilization = %d permille", got)
	}
}

func TestQueueOccupancyVisible(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := New(eng, Config{RateBps: 1_000_000, QueueBytes: 1 << 20}, dst, 0)
	for i := 0; i < 10; i++ {
		l.Enqueue(&Packet{Size: 1000})
	}
	// One packet is serializing, 9 queued.
	if l.QueueLenPackets() != 9 || l.QueueLenBytes() != 9000 {
		t.Errorf("occupancy: %d pkts %d bytes", l.QueueLenPackets(), l.QueueLenBytes())
	}
	eng.Run()
}

func TestFlowKeyHashDeterministic(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	if k.Hash(0) != k.Hash(0) {
		t.Error("hash not deterministic")
	}
	if k.Hash(0) == k.Hash(1) {
		t.Error("path tag does not affect hash")
	}
	k2 := k
	k2.SrcPort = 1001
	if k.Hash(0) == k2.Hash(0) {
		t.Error("port does not affect hash")
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: 17}
	if k.String() != "1:10->2:20/17" {
		t.Errorf("String = %q", k.String())
	}
}

func TestTinyPacketMinimumTxTime(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	// Absurdly fast link: tx time clamps to >= 1 ns so events always advance.
	l := New(eng, Config{RateBps: 1 << 60}, dst, 0)
	l.Enqueue(&Packet{Size: 1})
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatal("packet lost")
	}
}
