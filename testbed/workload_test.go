package testbed

// Determinism guards for the workload engine wired through the testbed:
// an incast spec on the fat-tree must produce byte-identical traffic
// counters AND byte-identical workload fingerprints at every shard count.
// CI's race job runs it with -race.

import (
	"strings"
	"testing"
)

func TestWorkloadDeterminismAcrossSubstrate(t *testing.T) {
	spec := WorkloadIncastFatTree(4)
	var base string
	for _, shards := range []int{1, 2, 4} {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 4, Duration: 30 * Millisecond, WithTPP: true,
			Seed: 3, Shards: shards,
			Workload: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.WorkloadFingerprint == "" {
			t.Fatal("no workload fingerprint recorded")
		}
		fp := scaleFingerprint(res) + " :: " + res.WorkloadFingerprint
		if base == "" {
			base = fp
		} else if fp != base {
			t.Errorf("shards=%d diverges\n  base: %s\n  got:  %s", shards, base, fp)
		}
	}
	if !strings.Contains(base, "kind=incast") {
		t.Errorf("fingerprint missing incast group: %s", base)
	}
}

// The incast workload must actually stress the fabric: requests fan out,
// responses collide, and with TPP attached every packet is instrumented.
func TestWorkloadIncastOnFatTreeDelivers(t *testing.T) {
	res, err := RunScaleFatTree(ScaleConfig{
		K: 4, Duration: 50 * Millisecond, WithTPP: true, Seed: 3,
		Workload: WorkloadIncastFatTree(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.TPPHopRecords == 0 {
		t.Fatalf("incast workload idle: delivered=%d tpp=%d", res.Delivered, res.TPPHopRecords)
	}
}

// Chaos runs accept a background workload; the fingerprint must extend —
// not replace — the chaos invariant fingerprint, stay reproducible, and
// conservation must still hold under faults + workload.
func TestChaosWithBackgroundWorkload(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, Workload: WorkloadHeavyTail(0.05)}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.WorkloadFP == "" {
		t.Fatal("chaos run recorded no workload fingerprint")
	}
	if !strings.Contains(a.Fingerprint(), " wl{") {
		t.Fatalf("chaos fingerprint does not embed workload: %s", a.Fingerprint())
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("chaos+workload not reproducible\n  a: %s\n  b: %s", a.Fingerprint(), b.Fingerprint())
	}
}

// RunFig1Workload under synchronized incast must see burstier queues than
// the same dumbbell under a smooth paced load at trivial utilization.
func TestFig1UnderIncastSeesBursts(t *testing.T) {
	incast := WorkloadIncastFatTree(4) // reuse the canned group on 6 hosts
	incast.Groups[0].Incast.Aggregators = []int{0, 1}
	incast.Groups[0].Incast.FanIn = 3
	r, err := RunFig1Workload(incast, Fig1Config{Duration: 1 * Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSamples == 0 {
		t.Fatal("no TPP samples under incast workload")
	}
	if r.BurstQueues == 0 {
		t.Errorf("expected burst queues under synchronized incast; got none\n%s", r.Table())
	}
}

func TestRCPWorkloadComparison(t *testing.T) {
	res, err := RunRCPWorkload(2*Second, SimOpts{Seed: 1}, WorkloadHeavyTail(0.10))
	if err != nil {
		t.Fatal(err)
	}
	// Clean pass must reproduce the Figure 2 max-min panel (~50/50/50).
	for i, v := range res.Clean {
		if v < 35 || v > 65 {
			t.Errorf("clean flow %d: %.1f Mb/s, want ~50", i, v)
		}
	}
	if res.BgDeliveredMB <= 0 {
		t.Error("background workload delivered nothing")
	}
	// Background load must cost the RCP* flows throughput somewhere.
	var clean, loaded float64
	for i := range res.Clean {
		clean += res.Clean[i]
		loaded += res.Loaded[i]
	}
	if loaded >= clean {
		t.Errorf("background load did not reduce RCP* aggregate: clean=%.1f loaded=%.1f", clean, loaded)
	}
}
