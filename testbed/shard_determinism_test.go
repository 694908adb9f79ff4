package testbed

// Determinism guard for the sharded simulation: the contract every figure
// and benchmark in this repository relies on is that WithShards(n) changes
// only wall-clock behavior, never simulated behavior. These tests pin it:
// the same seed must produce byte-identical traffic counters and rendered
// experiment outputs at 1, 2 and 4 shards.

import (
	"fmt"
	"testing"

	"minions/tppnet"
)

// scaleFingerprint renders every simulated-behavior field of a ScaleResult.
// The allocation count is excluded, and so is Events: engine
// events are a host-cost proxy, and boundary links run one more per packet
// than ordinary links (see internal/link), so the count moves with shards.
func scaleFingerprint(r *ScaleResult) string {
	return fmt.Sprintf("hosts=%d switches=%d links=%d hops=%d delivered=%d mb=%.9f drops=%d tpp=%d",
		r.Hosts, r.Switches, r.Links, r.PktHops, r.Delivered, r.DeliveredMB,
		r.Drops, r.TPPHopRecords)
}

func TestShardDeterminismScaleFatTree(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		var base string
		for _, shards := range []int{1, 2, 4} {
			res, err := RunScaleFatTree(ScaleConfig{
				K: 4, Flows: 64, Duration: 30 * Millisecond,
				WithTPP: true, Seed: seed, Shards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			fp := scaleFingerprint(res)
			if shards == 1 {
				base = fp
			} else if fp != base {
				t.Errorf("seed %d: shards=%d diverges from shards=1\n  1: %s\n  %d: %s",
					seed, shards, base, shards, fp)
			}
		}
	}
}

func TestShardDeterminismFig1(t *testing.T) {
	var base string
	for _, shards := range []int{1, 2, 4} {
		r, err := RunFig1(Fig1Config{Duration: 500 * Millisecond, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			base = r.Table()
		} else if r.Table() != base {
			t.Errorf("fig1 shards=%d diverges:\n-- shards=1 --\n%s-- shards=%d --\n%s",
				shards, base, shards, r.Table())
		}
	}
}

func TestShardDeterminismFig2(t *testing.T) {
	var base string
	for _, shards := range []int{1, 2, 4} {
		r, err := RunFig2(2*Second, SimOpts{Seed: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			base = r.Table()
		} else if r.Table() != base {
			t.Errorf("fig2 shards=%d diverges:\n-- shards=1 --\n%s-- shards=%d --\n%s",
				shards, base, shards, r.Table())
		}
	}
}

func TestShardDeterminismFig4(t *testing.T) {
	var base string
	for _, shards := range []int{1, 2, 4} {
		r, err := RunFig4(2*Second, SimOpts{Seed: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			base = r.Table()
		} else if r.Table() != base {
			t.Errorf("fig4 shards=%d diverges:\n-- shards=1 --\n%s-- shards=%d --\n%s",
				shards, base, shards, r.Table())
		}
	}
}

// TestShardDeterminismTCP covers the transport that draws random send
// jitter: TCP flows seed their jitter from the flow 4-tuple, not the
// (per-shard) engine RNG, so TCP behavior must also be shard-invariant.
func TestShardDeterminismTCP(t *testing.T) {
	run := func(shards int) string {
		net := NewNet(SimOpts{Seed: 11, Shards: shards})
		hosts, _, _ := net.Dumbbell(6, 100)
		var flows []*TCPFlow
		for i := 0; i < 3; i++ {
			dst := hosts[3+i]
			dport := uint16(30000 + i)
			tppnet.NewTCPSink(dst, dport, 2)
			f := tppnet.NewTCPFlow(hosts[i], dst.ID(), uint16(20000+i), dport, 1440)
			f.Start()
			flows = append(flows, f)
		}
		net.RunUntil(200 * Millisecond)
		out := ""
		for i, f := range flows {
			out += fmt.Sprintf("flow%d: tx=%d bytes=%d retx=%d\n",
				i, f.TxDataPkts, f.TxDataBytes, f.Retransmits)
		}
		return out
	}
	base := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != base {
			t.Errorf("TCP shards=%d diverges:\n-- shards=1 --\n%s-- shards=%d --\n%s",
				shards, base, shards, got)
		}
	}
}

// TestShardDeterminismRepeatable pins run-to-run reproducibility at a fixed
// shard count (goroutine scheduling must never leak into results).
func TestShardDeterminismRepeatable(t *testing.T) {
	var base string
	for i := 0; i < 3; i++ {
		res, err := RunScaleFatTree(ScaleConfig{
			K: 4, Flows: 64, Duration: 20 * Millisecond,
			WithTPP: true, Seed: 3, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp := scaleFingerprint(res)
		if i == 0 {
			base = fp
		} else if fp != base {
			t.Fatalf("run %d diverges at fixed shard count:\n  %s\n  %s", i, base, fp)
		}
	}
}
