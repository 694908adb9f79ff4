package main

import (
	"strings"
	"testing"
)

func fatTreeRow(cfg map[string]any, pktHops float64) report {
	return report{Scenarios: []scenario{{
		Name:   "fat-tree",
		Config: cfg,
		Metrics: map[string]float64{
			"pkt_hops": pktHops, "pkts_delivered": 100, "drops": 0, "tpp_hop_records": 0,
		},
	}}}
}

// The -baseline gate must keep comparing against snapshots that stamp
// options which no longer exist, must fail rather than skip when a baseline
// row cannot be compared, and must still catch counter drift.
func TestBaselineProblems(t *testing.T) {
	// JSON-decoded numbers are float64; a fresh run's are ints.
	old := fatTreeRow(map[string]any{"k": 4.0, "shards": 1.0, "scheduler": "wheel", "num_cpu": 1.0}, 1000)
	fresh := map[string]any{"k": 4, "shards": 1, "gomaxprocs": 2, "num_cpu": 2}

	if p := baselineProblems(fatTreeRow(fresh, 1000), old); len(p) != 0 {
		t.Errorf("snapshot stamped with a removed option no longer compares: %v", p)
	}
	if p := baselineProblems(fatTreeRow(fresh, 1100), old); len(p) != 1 || !strings.Contains(p[0], "drifts") {
		t.Errorf("10%% pkt_hops drift not reported: %v", p)
	}
	other := map[string]any{"k": 8, "shards": 1}
	if p := baselineProblems(fatTreeRow(other, 1000), old); len(p) != 1 || !strings.Contains(p[0], "differs") {
		t.Errorf("uncomparable baseline row passed silently: %v", p)
	}
	if p := baselineProblems(fatTreeRow(fresh, 1000), report{}); len(p) != 0 {
		t.Errorf("row absent from the baseline reported: %v", p)
	}
}
