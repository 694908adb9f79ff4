package testbed

// Sync-counter guards for the sharded engine: a measured window is one
// group-wide synchronization point however large the fabric, and the
// deterministic counters reproduce run to run — what makes shard overhead
// diagnosable from counts, without trusting wall-clock on a 1-CPU box.
// (That the asynchronous runtime simulates what a global-epoch barrier
// loop does, in far fewer sync points, is pinned against the oracle in
// internal/sim: TestShardSyncEquivalence, TestShardGroupSyncStats.)

import "testing"

// TestSyncPointReduction pins what replacing the epoch barriers bought, at
// k=16, shards=4: the whole measured window is a single dispatch-join,
// where the barrier engine entered one sync point per lookahead window
// (19,465 at k=8 over 100 ms; EXPERIMENTS.md "Parallel scaling").
func TestSyncPointReduction(t *testing.T) {
	res, err := RunScaleFatTree(ScaleConfig{
		K: 16, Flows: 256, Duration: 10 * Millisecond,
		WithTPP: true, Seed: 1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fp := scaleFingerprint(res); fp != goldenScaleK16 {
		t.Fatalf("k=16 shards=4 drifted from the single-shard golden:\n got %s\nwant %s", fp, goldenScaleK16)
	}
	if res.SyncPoints != 1 {
		t.Errorf("measured window entered %d group-wide sync points, want 1", res.SyncPoints)
	}
	if res.SyncCrossings == 0 {
		t.Error("no shard crossings counted — sync counters dead")
	}
}

// TestSyncCountersDeterministic pins run-to-run reproducibility of the
// deterministic counter subset (sync points, crossings). Drains and idle
// waits move with goroutine scheduling; ScaleResult does not carry them
// (tppbench reports them as sim.shard_* rows).
func TestSyncCountersDeterministic(t *testing.T) {
	var points, crossings uint64
	for i := 0; i < 3; i++ {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 4, Flows: 64, Duration: 20 * Millisecond,
			WithTPP: true, Seed: 3, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			points, crossings = res.SyncPoints, res.SyncCrossings
		} else if res.SyncPoints != points || res.SyncCrossings != crossings {
			t.Fatalf("run %d counter drift: sync points %d->%d, crossings %d->%d",
				i, points, res.SyncPoints, crossings, res.SyncCrossings)
		}
	}
}
