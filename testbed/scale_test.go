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

// scaleAllocFloor is the zero-allocation contract of a single-shard scale
// window, in heap allocations per packet-hop. It is not literally 0 for two
// reasons: runtime.MemStats counts the whole process, so a stray allocation
// by the runtime or the test framework can land inside the window; and the
// k=8 and k=16 fabrics still grow a few wheel buckets once, after warm-up
// (17 allocations in 100 ms). Any allocation on the per-packet path shows up
// as >= 1 per hop, four orders of magnitude above the floor. The floor is a
// rate, so it only resolves on a window of ~100k packet-hops (100 ms of the
// default traffic): on a 10k-hop window it would forbid a single allocation.
const scaleAllocFloor = 1e-4

// requireZeroAllocs holds one measured window to scaleAllocFloor.
func requireZeroAllocs(t *testing.T, res *ScaleResult) {
	t.Helper()
	if got := res.AllocsPerPktHop(); got > scaleAllocFloor {
		t.Errorf("%d allocations in the measured window = %.2g per packet-hop, want <= %g\n%s",
			res.Mallocs, got, scaleAllocFloor, res.Table())
	}
}

func TestRunScaleFatTreeSmoke(t *testing.T) {
	res, err := RunScaleFatTree(ScaleConfig{
		K:       4,
		Flows:   100,
		Warmup:  5 * Millisecond,
		WithTPP: true,
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
	requireZeroAllocs(t, res)
}

// The telemetry acceptance bar: attaching an NDJSON export pipeline to the
// scale run must not reintroduce per-packet allocation — every hop record
// flows through Publish and the batched encoder without touching the heap.
// The spool holds under half of the window's records, so inline flushes (the
// Block policy) land inside the measured window and are held to the floor
// too; one spool's worth is published and flushed first, because the encode
// buffer grows to its batch size once per sink, not per record.
func TestRunScaleFatTreeExportZeroAlloc(t *testing.T) {
	const spool = 1 << 15
	pipe := telemetry.NewPipeline(telemetry.Config{Spool: spool, Policy: telemetry.Block})
	pipe.Attach(telemetry.NewNDJSONSink(io.Discard))
	for i := 0; i < spool; i++ {
		pipe.Publish(telemetry.Record{App: "scale", Kind: "hop", Node: 42, Val: 3, Aux: [3]uint64{2, 17, 33}})
	}
	pipe.Flush()
	res, err := RunScaleFatTree(ScaleConfig{
		K: 4, Flows: 100, Warmup: 5 * Millisecond,
		WithTPP: true, Export: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TPPHopRecords == 0 {
		t.Fatal("TPP instrumentation collected nothing")
	}
	if st := pipe.Stats(); st.Published < spool+res.TPPHopRecords {
		t.Fatalf("pipeline saw %d records, want the %d published above plus >= %d hop records",
			st.Published, spool, res.TPPHopRecords)
	}
	requireZeroAllocs(t, res)
}

// TestScaleRunsZeroAllocs is the zero-allocation contract of the fabric
// runs: every single-shard scale scenario — CBR with and without the TPP,
// the two canned workloads, the k=8 and k=16 fabrics — held to
// scaleAllocFloor over a 100 ms window and, since the run is paid for, to
// its exact golden counters. The workload rows warm up for 1 s: heavy-tailed
// specs keep setting record queue depths for longer than the CBR default.
// k=8 is the row the wheel's bucket seed capacities are sized for.
func TestScaleRunsZeroAllocs(t *testing.T) {
	for _, row := range []struct {
		name       string
		cfg        ScaleConfig // plus Duration 100 ms, Seed 1
		want, wlFP string
	}{
		{"fat-tree+tpp", ScaleConfig{K: 4, Flows: 128, WithTPP: true},
			goldenScale100K4TPP, ""},
		{"fat-tree", ScaleConfig{K: 4, Flows: 128},
			goldenScale100K4Plain, ""},
		{"fat-tree-incast", ScaleConfig{K: 4, Warmup: Second, WithTPP: true, Workload: WorkloadIncastFatTree(4)},
			goldenScale100K4Incast, goldenWorkloadIncast},
		{"fat-tree-heavytail", ScaleConfig{K: 4, Warmup: Second, WithTPP: true, Workload: WorkloadHeavyTail(0.15)},
			goldenScale100K4HeavyTail, goldenWorkloadHeavyTail},
		{"fat-tree-k8", ScaleConfig{K: 8, Flows: 256, WithTPP: true},
			goldenScale100K8, ""},
		{"fat-tree-k16", ScaleConfig{K: 16, Flows: 256, WithTPP: true},
			goldenScale100K16, ""},
	} {
		row.cfg.Duration, row.cfg.Seed = 100*Millisecond, 1
		t.Run(row.name, func(t *testing.T) {
			res, err := RunScaleFatTree(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireZeroAllocs(t, res)
			if fp := scaleFingerprint(res); fp != row.want {
				t.Errorf("counters drifted:\n got %s\nwant %s", fp, row.want)
			}
			if res.WorkloadFingerprint != row.wlFP {
				t.Errorf("workload fingerprint drifted:\n got %s\nwant %s", res.WorkloadFingerprint, row.wlFP)
			}
		})
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
