package testbed

import "testing"

// TestRunChaosInvariants runs the standard chaos scenario and checks that
// the faults actually happened and the resilience machinery actually
// engaged — RunChaos itself enforces the hard invariants (no leaked pool
// packets, bounded recovery) by returning an error.
func TestRunChaosInvariants(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Seed: 1})
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Table())
	}
	f := res.Faults
	if f.LinkDowns == 0 || f.LinkUps == 0 {
		t.Errorf("no link flaps fired: %+v", f)
	}
	if f.LinkDowns != f.LinkUps {
		t.Errorf("horizon restore broken: %d downs vs %d ups", f.LinkDowns, f.LinkUps)
	}
	if f.Halts != 1 || f.Restarts != 1 {
		t.Errorf("scripted core halt/restart: got %d/%d, want 1/1", f.Halts, f.Restarts)
	}
	if f.Losses == 0 || f.Stalls == 0 {
		t.Errorf("background loss/jitter never fired: %+v", f)
	}
	if f.ScriptFired != 6 {
		t.Errorf("script fired %d events, want 6", f.ScriptFired)
	}
	if res.CongaDeaths == 0 {
		t.Error("CONGA* never declared a dead path despite a halted core switch")
	}
	if res.CongaRevives == 0 {
		t.Error("CONGA* never revived a path despite the restore")
	}
	if res.RCPMissed == 0 {
		t.Error("RCP* never missed a collect round despite the outage")
	}
	if res.BaselineMbps <= 0 || res.DeliveredPkts == 0 {
		t.Errorf("degenerate run: baseline %.1f Mb/s, %d delivered", res.BaselineMbps, res.DeliveredPkts)
	}
	if res.FloorMbps >= res.BaselineMbps {
		t.Errorf("outage never dented the aggregate: floor %.1f >= baseline %.1f", res.FloorMbps, res.BaselineMbps)
	}
	t.Logf("\n%s", res.Table())
}

// TestChaosDeterminism pins the fault plane's reproducibility contract:
// identical (seed, plan) tuples produce byte-identical results across runs
// and shard counts.
func TestChaosDeterminism(t *testing.T) {
	base, err := RunChaos(ChaosConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fp := base.Fingerprint()

	again, err := RunChaos(ChaosConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Fingerprint(); got != fp {
		t.Errorf("rerun diverges:\n  1: %s\n  2: %s", fp, got)
	}

	sharded, err := RunChaos(ChaosConfig{Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sharded.Fingerprint(); got != fp {
		t.Errorf("shards=2 diverges:\n  1: %s\n  2: %s", fp, got)
	}

	if sharded.Faults.Halts != 1 {
		t.Errorf("sharded chaos run lost the scripted halt: %+v", sharded.Faults)
	}

	if other, err := RunChaos(ChaosConfig{Seed: 9}); err != nil {
		t.Fatal(err)
	} else if other.Fingerprint() == fp {
		t.Error("different seeds produced identical runs — the plan seed is not reaching the fault machines")
	}
}
