package testbed

import (
	"io"
	"testing"

	"minions/telemetry"
)

// The acceptance bar of the zero-allocation hot path: a steady-state
// host-send → TPP switch hop → delivery cycle allocates nothing. (The
// subtest keeps the name the timing-wheel engine has always run under.)
func TestForwardPathZeroAllocs(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		e, err := NewE2EHarness(true)
		if err != nil {
			t.Fatal(err)
		}
		// Warm pools, rings, wheel buckets, and the switch's
		// decoded-program cache.
		for i := 0; i < 200; i++ {
			e.Step()
		}
		allocs := testing.AllocsPerRun(500, e.Step)
		if allocs != 0 {
			t.Fatalf("forward path allocated %.2f per packet, want 0", allocs)
		}
		if e.Sink.Packets == 0 || e.HopRecords == 0 {
			t.Fatalf("harness delivered %d packets, %d hop records — not exercising the path",
				e.Sink.Packets, e.HopRecords)
		}
	})
}

// Same bar without TPP attachment: plain forwarding is also allocation-free.
func TestForwardPathZeroAllocsNoTPP(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		e, err := NewE2EHarness(false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			e.Step()
		}
		if allocs := testing.AllocsPerRun(500, e.Step); allocs != 0 {
			t.Fatalf("plain forward path allocated %.2f per packet, want 0", allocs)
		}
	})
}

// Packets recycle rather than accumulate: in a drained harness every pool
// draw has been returned.
func TestForwardPathRecyclesPackets(t *testing.T) {
	e, err := NewE2EHarness(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Step()
	}
	gets, puts, news := e.Net.PacketPool().Stats()
	if gets != puts {
		t.Fatalf("pool gets %d != puts %d: packets leak out of the cycle", gets, puts)
	}
	if news > 4 {
		t.Fatalf("pool allocated %d fresh packets for a one-in-flight workload", news)
	}
}

func TestRunScaleFatTreeSmoke(t *testing.T) {
	res, err := RunScaleFatTree(ScaleConfig{
		K:        4,
		Flows:    100,
		Duration: 10 * Millisecond,
		Warmup:   5 * Millisecond,
		WithTPP:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 16 || res.Switches != 20 {
		t.Fatalf("k=4 dims: %d hosts, %d switches", res.Hosts, res.Switches)
	}
	if res.PktHops == 0 || res.Delivered == 0 || res.Events == 0 {
		t.Fatalf("no traffic measured: %+v", res)
	}
	if res.TPPHopRecords == 0 {
		t.Fatal("TPP instrumentation collected nothing")
	}
	// Steady state should be (near) allocation-free; allow scheduler noise
	// from background runtime activity but fail on per-packet allocation.
	if got := res.AllocsPerPktHop(); got > 0.1 {
		t.Fatalf("scale run allocates %.3f per packet-hop", got)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

// The telemetry acceptance bar: attaching an NDJSON export pipeline to the
// scale run must not reintroduce per-packet allocation — every hop record
// flows through Publish and the batched encoder without touching the heap.
func TestRunScaleFatTreeExportZeroAlloc(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.Config{Spool: 1 << 15, Policy: telemetry.Block})
	pipe.Attach(telemetry.NewNDJSONSink(io.Discard))
	res, err := RunScaleFatTree(ScaleConfig{
		K: 4, Flows: 100, Duration: 10 * Millisecond, Warmup: 5 * Millisecond,
		WithTPP: true, Export: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TPPHopRecords == 0 {
		t.Fatal("TPP instrumentation collected nothing")
	}
	if st := pipe.Stats(); st.Published == 0 {
		t.Fatal("pipeline saw no records")
	}
	if got := res.AllocsPerPktHop(); got > 0.1 {
		t.Fatalf("scale run with NDJSON export allocates %.3f per packet-hop", got)
	}
}

// Determinism: the same seed must produce the identical packet-level
// outcome after the event-record refactor, hop for hop.
func TestRunScaleFatTreeDeterministic(t *testing.T) {
	run := func() *ScaleResult {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 4, Flows: 64, Duration: 5 * Millisecond, Warmup: 2 * Millisecond, WithTPP: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.PktHops != b.PktHops || a.Delivered != b.Delivered ||
		a.Events != b.Events || a.Drops != b.Drops || a.TPPHopRecords != b.TPPHopRecords {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
