package workload

import (
	"testing"

	"minions/internal/sim"
	"minions/internal/topo"
)

func TestAllToAllOfferedLoad(t *testing.T) {
	n := topo.New(1)
	hosts, _, _ := topo.Dumbbell(n, 6, 100)
	r, err := AllToAll(AllToAllConfig{
		MsgBytes: 10_000,
		Load:     0.30,
		Duration: 2 * sim.Second,
		Seed:     42,
	}).Attach(hosts)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunUntil(2*sim.Second + 100*sim.Millisecond)

	var total uint64
	for _, s := range r.Sinks {
		total += s.Bytes
	}
	// 6 hosts x 100 Mb/s x 30% x 2 s = 45 MB offered. Allow wide slack for
	// Poisson variance and queueing losses, but the order must be right.
	mb := float64(total) / 1e6
	if mb < 25 || mb > 60 {
		t.Errorf("delivered %.1f MB, want ~45 MB at 30%% load", mb)
	}
	// Traffic must reach every host.
	for i, s := range r.Sinks {
		if s.Packets == 0 {
			t.Errorf("host %d received nothing", i)
		}
	}
}

func TestAllToAllZeroLoad(t *testing.T) {
	n := topo.New(1)
	hosts, _, _ := topo.Dumbbell(n, 4, 100)
	r, err := AllToAll(AllToAllConfig{
		MsgBytes: 10_000,
		Load:     0,
		Duration: sim.Second,
	}).Attach(hosts)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.Run()
	for _, s := range r.Sinks {
		if s.Bytes != 0 {
			t.Error("zero load generated traffic")
		}
	}
}

// TestAllToAllZeroAllocs guards the all-to-all pacing path: a warmed
// workload — Poisson arrivals, destination draws, burst sends, deliveries,
// drops — runs entirely on typed resident handlers and pooled packets, so
// advancing the simulation allocates nothing.
func TestAllToAllZeroAllocs(t *testing.T) {
	n := topo.New(1)
	hosts, _, _ := topo.Dumbbell(n, 6, 100)
	if _, err := AllToAll(AllToAllConfig{
		MsgBytes: 10_000,
		Load:     0.30,
		Duration: 3600 * sim.Second, // longer than any window measured below
		Seed:     42,
	}).Attach(hosts); err != nil {
		t.Fatal(err)
	}
	// Warm pools, rings, wheel buckets and the sinks.
	n.Eng.RunUntil(500 * sim.Millisecond)
	window := sim.Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		window += 2 * sim.Millisecond
		n.Eng.RunUntil(500*sim.Millisecond + window)
	})
	if allocs != 0 {
		t.Fatalf("all-to-all steady state allocated %.2f per 2 ms window, want 0", allocs)
	}
}
