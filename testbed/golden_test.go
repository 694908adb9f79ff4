package testbed

// Equivalence guard for the flat-memory routing swap: the determinism tests
// in shard_determinism_test.go pin that shard counts agree with each other,
// but nothing stopped the whole family from drifting together.
// These tests pin the *absolute* outputs — sha256 of the rendered Fig1/2/4
// tables and the full behavioral fingerprint of ScaleResult — to values
// captured from the map-based representation immediately before the swap to
// dense route tables and arithmetic fat-tree routing. Any representation
// change that alters one simulated byte (entry IDs, ECMP port order, table
// versions, drop behavior) trips them.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"testing"

	"minions/internal/topo"
	"minions/tpp"
	"minions/tppnet"
)

// Pre-refactor golden hashes of the figure tables. The tables are identical
// across shard counts (the determinism tests pin that), so one hash per
// figure covers them all.
const (
	goldenFig1 = "6cb9a2531a8b65647528364b7c51cbfa8e8772730779afadadfad41ee7604f61"
	goldenFig2 = "83af1513110ddc8192a21c615f6d09ed54940108aa98bb7d330f32f2ea77a4dd"
	goldenFig4 = "2d1359543af7f343c99777cdb71bcbbfb9affaeeab2fcb67129c2256c56c5636"
)

// Pre-refactor golden ScaleResult fingerprints (scaleFingerprint fields:
// everything simulated, nothing wall-clock).
const (
	goldenScaleK4  = "hosts=16 switches=20 links=96 hops=19144 delivered=3421 mb=4.789400000 drops=0 tpp=15705"
	goldenScaleK8  = "hosts=128 switches=80 links=768 hops=26064 delivered=4559 mb=6.382600000 drops=0 tpp=21473"
	goldenScaleK16 = "hosts=1024 switches=320 links=6144 hops=26711 delivered=4557 mb=6.379800000 drops=0 tpp=22103"
)

// Golden fingerprints of the 100 ms single-shard windows (k=4/128 flows
// with and without the TPP, the two canned workloads after 1 s of warm-up,
// k=8 and k=16 at 256 flows; seed 1) — the configurations every perf number
// in EXPERIMENTS.md up to PR 14 was taken on. TestGoldenScaleFingerprints
// holds the k=4 CBR pair, TestScaleRunsZeroAllocs all six.
const (
	goldenScale100K4TPP       = "hosts=16 switches=20 links=96 hops=124243 delivered=22848 mb=31.987200000 drops=0 tpp=101384"
	goldenScale100K4Plain     = "hosts=16 switches=20 links=96 hops=124244 delivered=22847 mb=31.985800000 drops=0 tpp=0"
	goldenScale100K4Incast    = "hosts=16 switches=20 links=96 hops=66360 delivered=11200 mb=16.604800000 drops=0 tpp=7248"
	goldenScale100K4HeavyTail = "hosts=16 switches=20 links=96 hops=90884 delivered=18141 mb=27.057809000 drops=0 tpp=232"
	goldenScale100K8          = "hosts=128 switches=80 links=768 hops=260947 delivered=45695 mb=63.973000000 drops=0 tpp=215259"
	goldenScale100K16         = "hosts=1024 switches=320 links=6144 hops=267368 delivered=45692 mb=63.968800000 drops=0 tpp=221670"

	goldenWorkloadIncast    = "incast kind=incast src=4 msgs=2200 bytes=176000000 pkts=132000 ovf=0 req=8800 resp=8800 rx=123200/182652800"
	goldenWorkloadHeavyTail = "heavy-tail kind=messages src=16 msgs=642 bytes=412921428 pkts=110636 ovf=0 req=0 resp=0 rx=110446/164483033"
)

func goldenShards(t *testing.T) []int {
	if testing.Short() {
		return []int{1}
	}
	return []int{1, 2, 4}
}

// TestGoldenFigures pins the Fig1/2/4 tables byte-for-byte (via sha256) to
// their pre-refactor values at shards 1/2/4. (The "/wheel" in the subtest
// names is the ID these cases have always run under.)
func TestGoldenFigures(t *testing.T) {
	for _, shards := range goldenShards(t) {
		t.Run(fmt.Sprintf("shards=%d/wheel", shards), func(t *testing.T) {
			r1, err := RunFig1(Fig1Config{Duration: 400 * Millisecond, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunFig2(1500*Millisecond, SimOpts{Seed: 1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			r4, err := RunFig4(2*Second, SimOpts{Seed: 1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, fig := range []struct {
				name, want, table string
			}{
				{"fig1", goldenFig1, r1.Table()},
				{"fig2", goldenFig2, r2.Table()},
				{"fig4", goldenFig4, r4.Table()},
			} {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fig.table))); got != fig.want {
					t.Errorf("%s table drifted from pre-refactor golden:\nsha256 %s, want %s\n%s",
						fig.name, got, fig.want, fig.table)
				}
			}
		})
	}
}

// TestGoldenScaleFingerprints pins the k=4 fat-tree ScaleResult counters to
// their pre-refactor values at shards 1/2/4, and the k=8 counters
// single-shard (k=8 routes arithmetically, so this is also
// a behavioral proof that the arithmetic builder matches what BFS produced
// over the map representation). k=16 is pinned by TestRunScaleFatTreeK16.
// The k=4/128-flow/100 ms pair, with and without the TPP, is the
// configuration EXPERIMENTS.md's k=4 perf history was measured on.
func TestGoldenScaleFingerprints(t *testing.T) {
	for _, shards := range goldenShards(t) {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 4, Flows: 64, Duration: 30 * Millisecond,
			WithTPP: true, Seed: 1, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if fp := scaleFingerprint(res); fp != goldenScaleK4 {
			t.Errorf("k=4 shards=%d drifted from pre-refactor golden:\n got %s\nwant %s",
				shards, fp, goldenScaleK4)
		}
	}
	res, err := RunScaleFatTree(ScaleConfig{
		K: 8, Flows: 256, Duration: 10 * Millisecond,
		WithTPP: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fp := scaleFingerprint(res); fp != goldenScaleK8 {
		t.Errorf("k=8 drifted from pre-refactor golden:\n got %s\nwant %s", fp, goldenScaleK8)
	}
	for _, c := range []struct {
		withTPP bool
		want    string
	}{
		{true, goldenScale100K4TPP},
		{false, goldenScale100K4Plain},
	} {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 4, Flows: 128, Duration: 100 * Millisecond,
			WithTPP: c.withTPP, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if fp := scaleFingerprint(res); fp != c.want {
			t.Errorf("k=4 100 ms tpp=%v drifted from golden:\n got %s\nwant %s",
				c.withTPP, fp, c.want)
		}
	}
}

// TestRunScaleFatTreeK16 is the k=16 scale smoke: the fabric the flat
// representation exists for (1024 hosts, 12k+ route entries per switch
// table family) builds, routes, carries traffic, and lands on exactly the
// counters the map representation produced. Its 10 ms window is the one
// that golden was captured on and is too short for scaleAllocFloor to
// resolve (3 one-time bucket growths in 26,711 hops); the allocation
// contract of this fabric is the k=16 row of TestScaleRunsZeroAllocs.
func TestRunScaleFatTreeK16(t *testing.T) {
	res, err := RunScaleFatTree(ScaleConfig{
		K: 16, Flows: 256, Duration: 10 * Millisecond,
		WithTPP: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 1024 || res.Switches != 320 {
		t.Fatalf("k=16 dims: %d hosts, %d switches", res.Hosts, res.Switches)
	}
	if fp := scaleFingerprint(res); fp != goldenScaleK16 {
		t.Errorf("k=16 drifted from pre-refactor golden:\n got %s\nwant %s", fp, goldenScaleK16)
	}
}

// TestForwardPathZeroAllocsK16 is TestForwardPathZeroAllocs on a k=16
// fat-tree instead of the 3-node harness: one packet at a time crosses the
// full 5-switch-hop diameter (edge-agg-core-agg-edge) with the telemetry
// TPP attached, and the steady state must not allocate. This exercises the
// dense route lookup (split low/high tables, interned port groups) on
// switches whose tables hold >1300 entries.
func TestForwardPathZeroAllocsK16(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		net := NewNet(SimOpts{Seed: 1})
		pods := net.FatTree(16, 10_000)
		src, dst := pods[0][0], pods[15][63] // cross-core diameter path
		prog, err := scaleTelemetryProgram(6)
		if err != nil {
			t.Fatal(err)
		}
		app := net.CP.RegisterApp("k16-e2e")
		if _, err := src.AddTPP(app, FilterSpec{Proto: tppnet.ProtoUDP}, prog, 1, 0); err != nil {
			t.Fatal(err)
		}
		var hopRecords uint64
		dst.RegisterAggregator(app.Wire, func(p *Packet, view tpp.Section) {
			hopRecords += uint64(view.HopOrSP()) / 2
		})
		sink := tppnet.NewSink(dst, 9000, tppnet.ProtoUDP)
		dstID := dst.ID()
		step := func() {
			src.Send(src.NewPacket(dstID, 5000, 9000, tppnet.ProtoUDP, 1000))
			net.Run()
		}
		for i := 0; i < 200; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
			t.Fatalf("k=16 forward path allocated %.2f per packet, want 0", allocs)
		}
		if sink.Packets == 0 || hopRecords == 0 {
			t.Fatalf("harness delivered %d packets, %d hop records — not exercising the path",
				sink.Packets, hopRecords)
		}
	})
}

// TestScaleSmokeK32MemoryCeiling builds and routes a k=32 fat-tree (8192
// hosts, 1280 switches, ~12.1M route entries) and pins the live heap under
// a ceiling the old map representation exceeded by ~6x (it needed ~2.1 GB
// for the route tables alone). Gated behind SCALE_SMOKE=1 — the route
// computation takes a couple of wall seconds — and run by the scale-smoke
// CI job.
func TestScaleSmokeK32MemoryCeiling(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the k=32 memory-ceiling check")
	}
	n := topo.New(1)
	topo.FatTree(n, 32, 1000)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	const ceiling = 512 << 20
	if m.HeapAlloc > ceiling {
		t.Fatalf("k=32 built+routed topology holds %d MB live, ceiling %d MB",
			m.HeapAlloc>>20, ceiling>>20)
	}
	routes := 0
	for _, sw := range n.Switches {
		routes += sw.NumRoutes()
	}
	if want := len(n.Switches) * (len(n.Hosts) + len(n.Switches) - 1); routes != want {
		t.Fatalf("k=32 route entries: %d, want %d", routes, want)
	}
	t.Logf("k=32: %d hosts, %d switches, %d route entries, %d MB live heap",
		len(n.Hosts), len(n.Switches), routes, m.HeapAlloc>>20)
}
