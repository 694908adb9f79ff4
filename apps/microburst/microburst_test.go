package microburst_test

import (
	"testing"

	"minions/apps/microburst"
	"minions/tppnet"
	"minions/workload"
)

// allToAll starts the Figure 1 workload on hosts.
func allToAll(t *testing.T, hosts []*tppnet.Host, cfg workload.AllToAllConfig) {
	t.Helper()
	if _, err := workload.AllToAll(cfg).Attach(hosts); err != nil {
		t.Fatal(err)
	}
}

// figure1 runs a scaled-down §2.1 experiment: 6-host dumbbell at 100 Mb/s,
// all-to-all 10 kB messages at 30% load, every packet instrumented.
func figure1(t *testing.T, duration tppnet.Time) (*tppnet.Network, *microburst.Monitor) {
	t.Helper()
	n := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := n.Dumbbell(6, 100)
	mon := microburst.New(microburst.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	allToAll(t, hosts, workload.AllToAllConfig{
		MsgBytes: 10_000,
		Load:     0.30,
		Duration: duration,
		Seed:     11,
	})
	n.RunUntil(duration + 50*tppnet.Millisecond)
	return n, mon
}

func TestMonitorCollectsPerPacketSamples(t *testing.T) {
	_, mon := figure1(t, 500*tppnet.Millisecond)
	if mon.Samples() == 0 {
		t.Fatal("no samples collected")
	}
	qs := mon.Queues()
	if len(qs) < 4 {
		t.Fatalf("monitored %d queues, expected several", len(qs))
	}
	for _, q := range qs {
		if mon.CDF(q).N() == 0 {
			t.Errorf("queue %v has no samples", q)
		}
	}
}

func TestBurstsObservedAndQueuesOftenEmpty(t *testing.T) {
	// The Figure 1 claims: queues are empty for a large fraction of packet
	// arrivals, yet bursts (multi-packet occupancy spikes) do occur — which
	// is why sampling misses them and per-packet TPPs do not.
	_, mon := figure1(t, 1*tppnet.Second)
	sawBurst := false
	sawOftenEmpty := false
	for _, q := range mon.Queues() {
		if mon.MaxBurst(q) >= 3 {
			sawBurst = true
		}
		if mon.CDF(q).N() > 100 && mon.EmptyFraction(q) > 0.5 {
			sawOftenEmpty = true
		}
	}
	if !sawBurst {
		t.Error("no micro-bursts observed at 30% load")
	}
	if !sawOftenEmpty {
		t.Error("no queue was mostly empty — load model suspect")
	}
}

func TestTimeSeriesNonEmpty(t *testing.T) {
	_, mon := figure1(t, 300*tppnet.Millisecond)
	qs := mon.Queues()
	pts := mon.Series(qs[0]).Points()
	if len(pts) == 0 {
		t.Fatal("empty time series")
	}
}

func TestOverheadArithmetic(t *testing.T) {
	// §2.1: "If the diameter of the network is 5 hops, then each TPP adds
	// only a 54 byte overhead": 12 header + 12 instructions + 6x5 stats.
	// Our memory words are 32-bit (not the paper's 16-bit pairs), so the
	// per-hop record is 12 bytes and the total is 84; the structure of the
	// accounting is identical and asserted here.
	n := tppnet.NewNetwork(tppnet.WithSeed(1))
	n.Dumbbell(2, 100)
	mon := microburst.New(microburst.Config{})
	if err := mon.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	want := 12 + 12 + 5*3*4
	if got := mon.Overhead(); got != want {
		t.Errorf("overhead = %d, want %d", got, want)
	}
}

func TestSamplingReducesCost(t *testing.T) {
	n := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := n.Dumbbell(6, 100)
	mon := microburst.New(microburst.Config{
		Filter:     tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		SampleFreq: 10,
		Hosts:      hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	allToAll(t, hosts, workload.AllToAllConfig{
		MsgBytes: 10_000, Load: 0.2, Duration: 300 * tppnet.Millisecond, Seed: 5,
	})
	n.RunUntil(400 * tppnet.Millisecond)
	var attached, tx uint64
	for _, h := range n.Hosts {
		attached += h.Stats().TPPsAttached
		tx += h.Stats().TxPackets
	}
	frac := float64(attached) / float64(tx)
	if frac > 0.15 {
		t.Errorf("1-in-10 sampling instrumented %.0f%% of packets", frac*100)
	}
	if attached == 0 {
		t.Error("sampling instrumented nothing")
	}
	_ = mon
}

// TestSampleStreamMatchesAggregates: the typed telemetry stream delivers
// exactly the snapshots the aggregate counters record.
func TestSampleStreamMatchesAggregates(t *testing.T) {
	n := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := n.Dumbbell(6, 100)
	mon := microburst.New(microburst.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	var streamed uint64
	mon.SampleStream().Subscribe(func(s microburst.Sample) { streamed++ })
	allToAll(t, hosts, workload.AllToAllConfig{
		MsgBytes: 10_000, Load: 0.2, Duration: 200 * tppnet.Millisecond, Seed: 7,
	})
	n.RunUntil(300 * tppnet.Millisecond)
	if streamed == 0 {
		t.Fatal("sample stream delivered nothing")
	}
	if streamed != mon.Samples() {
		t.Errorf("stream delivered %d samples, aggregates saw %d", streamed, mon.Samples())
	}
}

// TestCloseStopsCollection: after Close, traffic no longer feeds the
// monitor and the shim counts the views as unclaimed.
func TestCloseStopsCollection(t *testing.T) {
	n := tppnet.NewNetwork(tppnet.WithSeed(3))
	hosts, _, _ := n.Dumbbell(6, 100)
	mon := microburst.New(microburst.Config{
		Filter: tppnet.FilterSpec{Proto: tppnet.ProtoUDP},
		Hosts:  hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	allToAll(t, hosts, workload.AllToAllConfig{
		MsgBytes: 10_000, Load: 0.2, Duration: 100 * tppnet.Millisecond, Seed: 9,
	})
	n.RunUntil(200 * tppnet.Millisecond)
	if mon.Samples() != 0 {
		t.Errorf("closed monitor ingested %d samples", mon.Samples())
	}
	var attached uint64
	for _, h := range hosts {
		attached += h.Stats().TPPsAttached
	}
	if attached != 0 {
		t.Errorf("closed monitor's filters still instrumented %d packets", attached)
	}
}
