package microburst_test

import (
	"testing"

	"minions/apps/microburst"
	"minions/telemetry"
	"minions/tppnet"
	"minions/workload"
)

// TestExportRecords runs the Figure 1 workload with the monitor's stream
// bridged into a pipeline and checks the exported records carry the sample
// fields in the pinned encoding.
func TestExportRecords(t *testing.T) {
	n := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := n.Dumbbell(6, 100)
	mon := microburst.New(microburst.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	var sink telemetry.MemSink
	pipe := telemetry.NewPipeline(telemetry.Config{Spool: 1 << 14, Policy: telemetry.Block})
	pipe.Attach(&sink)
	cancel := mon.Export(pipe)
	defer cancel()

	allToAll(t, hosts, workload.AllToAllConfig{
		MsgBytes: 10_000, Load: 0.30, Duration: 200 * tppnet.Millisecond, Seed: 11,
	})
	n.RunUntil(250 * tppnet.Millisecond)
	pipe.Flush()

	if uint64(len(sink.Records)) != mon.Samples() {
		t.Fatalf("exported %d records, monitor ingested %d samples", len(sink.Records), mon.Samples())
	}
	for _, r := range sink.Records {
		if r.App != "microburst" || r.Kind != "sample" {
			t.Fatalf("record tagged %s/%s", r.App, r.Kind)
		}
		if r.Val < 0 {
			t.Fatalf("negative occupancy %v", r.Val)
		}
	}
	if st := pipe.Stats(); st.DroppedOldest+st.DroppedNewest != 0 {
		t.Fatalf("Block pipeline dropped records: %+v", st)
	}
}
