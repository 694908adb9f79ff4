package trace_test

import (
	"bytes"
	"errors"
	"testing"

	"minions/internal/asm"
	"minions/internal/core"
	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/topo"
	"minions/internal/transport"
	"minions/telemetry/trace"
)

// buildDumbbell wires the capture/replay test network: a 4-host dumbbell
// with sinks on the right-side hosts. Flows and TPP filters are the
// caller's business — a replay run attaches neither.
func buildDumbbell(seed int64) (*topo.Network, []*host.Host, []*transport.Sink) {
	n := topo.New(seed)
	hosts, _, _ := topo.Dumbbell(n, 4, 100)
	sinks := []*transport.Sink{
		transport.NewSink(hosts[2], 9000, 17),
		transport.NewSink(hosts[3], 9001, 17),
	}
	return n, hosts, sinks
}

// TestReplayReproducesRun is the core replay contract: capture a live run
// (instrumented flows plus a standalone probe), replay the trace into a
// fresh identical topology with no apps, filters or transports attached,
// and require identical delivery at every sink.
func TestReplayReproducesRun(t *testing.T) {
	n1, hosts1, sinks1 := buildDumbbell(11)
	app := n1.CP.RegisterApp("replay-test")
	prog := asm.MustAssemble(`PUSH [Switch:SwitchID]`)
	if _, err := hosts1[0].AddTPP(app, host.FilterSpec{Proto: 17}, prog, 1, 0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cap, err := trace.Start(&buf, hosts1...)
	if err != nil {
		t.Fatal(err)
	}

	f0 := transport.NewUDPFlow(hosts1[0], hosts1[2].ID(), 9000, 9000, 1000)
	f0.SetRateBps(20_000_000)
	f0.Start()
	f1 := transport.NewUDPFlow(hosts1[1], hosts1[3].ID(), 9001, 9001, 600)
	f1.SetRateBps(10_000_000)
	f1.Start()
	err = hosts1[0].ExecuteTPP(app, prog, hosts1[3].ID(), host.ExecOpts{}, func(core.Section, error) {})
	if err != nil {
		t.Fatal(err)
	}

	n1.Eng.RunUntil(30 * sim.Millisecond)
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}

	n2, hosts2, sinks2 := buildDumbbell(11)
	stats, err := trace.ReplayFrom(hosts2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n2.Eng.RunUntil(30 * sim.Millisecond)

	if stats.Packets() != cap.Packets {
		t.Fatalf("replay injected %d packets, capture recorded %d", stats.Packets(), cap.Packets)
	}
	if stats.Standalone() != 1 {
		t.Fatalf("replay injected %d standalone probes, want 1", stats.Standalone())
	}
	if got := stats.StandaloneBytes(app.Wire); got == 0 {
		t.Fatal("no standalone bytes tallied for the probing app")
	}
	for i := range sinks1 {
		if sinks1[i].Packets != sinks2[i].Packets || sinks1[i].Bytes != sinks2[i].Bytes {
			t.Fatalf("sink %d: live run delivered %d pkts/%d B, replay %d pkts/%d B",
				i, sinks1[i].Packets, sinks1[i].Bytes, sinks2[i].Packets, sinks2[i].Bytes)
		}
	}

	// The destination host regenerated the probe echo in-network: the
	// original capture skipped it, so the replayed network must have seen
	// exactly one echo transmission too.
	if hosts2[3].Stats().TPPsEchoed != 1 {
		t.Fatalf("replay destination echoed %d probes, want 1", hosts2[3].Stats().TPPsEchoed)
	}
}

// TestReplayWrongTopology: a trace whose source nodes don't exist in the
// replay network is rejected up front.
func TestReplayWrongTopology(t *testing.T) {
	n1, hosts1, _ := buildDumbbell(5)
	var buf bytes.Buffer
	cap, err := trace.Start(&buf, hosts1...)
	if err != nil {
		t.Fatal(err)
	}
	// Send from the last host: its node ID is beyond what a smaller
	// topology allocates, so the replay lookup must fail.
	f := transport.NewUDPFlow(hosts1[3], hosts1[0].ID(), 9000, 9000, 1000)
	f.SetRateBps(10_000_000)
	f.Start()
	n1.Eng.RunUntil(5 * sim.Millisecond)
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}

	n2 := topo.New(5)
	smaller, _, _ := topo.Dumbbell(n2, 2, 100)
	_, err = trace.ReplayFrom(smaller, bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("replay accepted a trace from a different topology")
	}
	if !errors.Is(err, trace.ErrTopologyMismatch) {
		t.Fatalf("error %v does not wrap ErrTopologyMismatch", err)
	}
}

// TestReplayMissingDestination: a record addressed to a node the replay
// topology cannot deliver to — here a switch — is rejected as a topology
// mismatch unless the caller lists it via ReplayTo. Regression test for the
// silent failure mode where such records were injected anyway and the
// packets wandered until TTL death, skewing every replayed counter.
func TestReplayMissingDestination(t *testing.T) {
	n1, hosts1, _ := buildDumbbell(7)
	app := n1.CP.RegisterApp("replay-dst-test")
	prog := asm.MustAssemble(`PUSH [Switch:SwitchID]`)

	var buf bytes.Buffer
	cap, err := trace.Start(&buf, hosts1...)
	if err != nil {
		t.Fatal(err)
	}
	// A debugging probe addressed to the left dumbbell switch itself.
	swID := n1.Switches[0].NodeID()
	err = hosts1[0].ExecuteTPP(app, prog, swID, host.ExecOpts{}, func(core.Section, error) {})
	if err != nil {
		t.Fatal(err)
	}
	n1.Eng.RunUntil(5 * sim.Millisecond)
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("capture recorded no packets")
	}

	n2, hosts2, _ := buildDumbbell(7)
	if _, err := trace.Replay(hosts2, recs); !errors.Is(err, trace.ErrTopologyMismatch) {
		t.Fatalf("Replay with a switch-targeted record: err %v, want ErrTopologyMismatch", err)
	}
	if _, err := trace.ReplayTo(hosts2, []link.NodeID{n2.Switches[0].NodeID()}, recs); err != nil {
		t.Fatalf("ReplayTo with the switch listed: %v", err)
	}
}
