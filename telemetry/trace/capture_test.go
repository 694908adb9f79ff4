package trace_test

import (
	"bytes"
	"testing"

	"minions/telemetry/trace"
	"minions/tpp"
	"minions/tppnet"
)

// TestCaptureDumbbell records a small live run — instrumented UDP traffic
// plus a standalone executor probe — and checks the trace holds exactly the
// injected sends: TPPs as they left the hosts, the probe marked standalone,
// and the destination's echo transmission skipped (replay regenerates it).
func TestCaptureDumbbell(t *testing.T) {
	net := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := net.Dumbbell(2, 100)
	src, dst := hosts[0], hosts[1]

	app := net.CP.RegisterApp("capture-test")
	prog := tpp.MustAssemble(`PUSH [Switch:SwitchID]`)
	if _, err := src.AddTPP(app, tppnet.FilterSpec{Proto: tppnet.ProtoUDP}, prog, 1, 0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cap, err := trace.Start(&buf, src, dst)
	if err != nil {
		t.Fatal(err)
	}

	tppnet.NewSink(dst, 9000, tppnet.ProtoUDP)
	f := tppnet.NewUDPFlow(src, dst.ID(), 9000, 9000, 1000)
	f.SetRateBps(10_000_000)
	f.Start()

	echoDone := false
	err = src.ExecuteTPP(app, prog, dst.ID(), tppnet.ExecOpts{}, func(tpp.Section, error) {
		echoDone = true
	})
	if err != nil {
		t.Fatal(err)
	}

	net.RunFor(20 * tppnet.Millisecond)
	f.Stop()
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}
	if !echoDone {
		t.Fatal("standalone probe never completed")
	}
	if cap.EchoesSkipped == 0 {
		t.Fatal("echo transmission was not skipped — replay would double-inject")
	}

	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != cap.Packets {
		t.Fatalf("decoded %d records, capture wrote %d", len(recs), cap.Packets)
	}

	var standalone, withTPP int
	for _, r := range recs {
		if r.Src != uint32(src.ID()) {
			t.Fatalf("record from node %d; only host %d transmits non-echo traffic", r.Src, src.ID())
		}
		if r.Standalone() {
			standalone++
			if len(r.TPP) == 0 {
				t.Fatal("standalone probe record carries no TPP")
			}
		}
		if len(r.TPP) > 0 {
			withTPP++
			if _, err := tpp.Decode(r.TPP); err != nil {
				t.Fatalf("captured TPP does not decode: %v", err)
			}
		}
	}
	if standalone != 1 {
		t.Fatalf("trace holds %d standalone probes, want 1", standalone)
	}
	if withTPP < 10 {
		t.Fatalf("only %d instrumented packets captured, expected the whole flow", withTPP)
	}

	// The subscriptions are cancelled: further traffic must not grow the trace.
	n := cap.Packets
	f.Start()
	net.RunFor(5 * tppnet.Millisecond)
	if cap.Packets != n {
		t.Fatal("capture kept recording after Close")
	}
}

// TestCapturesCompose: two captures on the same host both record every
// transmit, and closing one leaves the other recording.
func TestCapturesCompose(t *testing.T) {
	net := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := net.Dumbbell(2, 100)
	src, dst := hosts[0], hosts[1]
	tppnet.NewSink(dst, 9000, tppnet.ProtoUDP)

	var bufA, bufB bytes.Buffer
	capA, err := trace.Start(&bufA, src)
	if err != nil {
		t.Fatal(err)
	}
	capB, err := trace.Start(&bufB, src)
	if err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			src.Send(src.NewPacket(dst.ID(), 9000, 9000, tppnet.ProtoUDP, 500))
		}
		net.Run()
	}

	send(7)
	if capA.Packets != 7 || capB.Packets != 7 {
		t.Fatalf("7 transmits: captures recorded %d and %d", capA.Packets, capB.Packets)
	}
	if err := capA.Close(); err != nil {
		t.Fatal(err)
	}
	send(5)
	if capA.Packets != 7 || capB.Packets != 12 {
		t.Fatalf("first capture closed, 5 more transmits: captures recorded %d (want 7) and %d (want 12)", capA.Packets, capB.Packets)
	}
	if err := capB.Close(); err != nil {
		t.Fatal(err)
	}
	if a, b := bufA.Len(), bufB.Len(); a == 0 || b <= a {
		t.Fatalf("trace sizes %d and %d bytes", a, b)
	}
}
