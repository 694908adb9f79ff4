package faults_test

import (
	"fmt"
	"math/rand"
	"testing"

	"minions/internal/asm"
	"minions/internal/faults"
	"minions/internal/host"
	"minions/internal/sim"
	"minions/internal/topo"
	"minions/internal/transport"
)

// randomPlan derives an arbitrary-but-deterministic fault plan from a seed:
// every spec is present or absent by coin flip, with rates and time
// constants drawn from ranges wide enough to cover quiet runs, loss storms
// and permanent-flap pathologies. The property tests quantify over these.
func randomPlan(seed int64, horizon sim.Time) *faults.Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &faults.Plan{Seed: seed, Horizon: horizon}
	if rng.Intn(2) == 0 {
		p.Flap = &faults.FlapSpec{
			MTTF: sim.Time(1+rng.Intn(40)) * sim.Millisecond,
			MTTR: sim.Time(1+rng.Intn(10)) * sim.Millisecond,
		}
	}
	if rng.Intn(4) > 0 {
		p.Loss = &faults.LossSpec{Rate: rng.Float64() * 0.05}
		if rng.Intn(2) == 0 {
			p.Loss.GoodToBad = rng.Float64() * 0.01
			p.Loss.BadToGood = 0.02 + rng.Float64()*0.2
			p.Loss.BadRate = rng.Float64()
		}
	}
	if rng.Intn(2) == 0 {
		p.Corrupt = &faults.CorruptSpec{Rate: rng.Float64() * 0.1}
	}
	if rng.Intn(2) == 0 {
		p.Jitter = &faults.JitterSpec{
			Rate: rng.Float64() * 0.2,
			Max:  sim.Time(1+rng.Intn(50)) * sim.Microsecond,
		}
	}
	if rng.Intn(2) == 0 {
		p.Halt = &faults.HaltSpec{
			MTTF: sim.Time(5+rng.Intn(60)) * sim.Millisecond,
			MTTR: sim.Time(1+rng.Intn(10)) * sim.Millisecond,
		}
	}
	return p
}

// chaosRun drives a TPP-instrumented dumbbell under the plan on the given
// shard count, drains it, and returns (fingerprint, leaked).
// The fingerprint covers every deterministic observable: fault counts, sink
// deliveries and link totals.
func chaosRun(t testing.TB, plan *faults.Plan, shards int) (string, int64) {
	t.Helper()
	n := topo.NewSharded(7, shards)
	hosts, _, _ := topo.Dumbbell(n, 4, 100)

	app := n.CP.RegisterApp("faults-test")
	prog := asm.MustAssemble(`PUSH [Switch:SwitchID]
PUSH [Link:QueuedBytes]`)
	var sinks []*transport.Sink
	var flows []*transport.UDPFlow
	for i := 0; i < 2; i++ {
		src, dst := hosts[i], hosts[2+i]
		if _, err := src.AddTPP(app, host.FilterSpec{Proto: 17}, prog, 1, 0); err != nil {
			t.Fatal(err)
		}
		port := uint16(9000 + i)
		sinks = append(sinks, transport.NewSink(dst, port, 17))
		f := transport.NewUDPFlow(src, dst.ID(), port, port, 1000)
		f.SetRateBps(30_000_000)
		f.Start()
		flows = append(flows, f)
	}

	inj := faults.NewInjector(*plan)
	if err := inj.Arm(n.Links(), n.Switches); err != nil {
		t.Fatal(err)
	}
	n.RunUntil(plan.Horizon + 10*sim.Millisecond)
	for _, f := range flows {
		f.Stop()
	}
	n.Run() // drain: every in-flight packet delivered or dropped terminally

	c := inj.Counts()
	fp := fmt.Sprintf("counts=%+v", c)
	for i, s := range sinks {
		fp += fmt.Sprintf(" sink%d=%d/%d", i, s.Packets, s.Bytes)
	}
	var tx, drops uint64
	for _, l := range n.Links() {
		st := l.Stats()
		tx += st.TxPackets
		drops += st.DropPackets
	}
	fp += fmt.Sprintf(" tx=%d drops=%d", tx, drops)

	if plan.Flap != nil && c.LinkDowns != c.LinkUps {
		t.Errorf("horizon restore broken: %d downs vs %d ups", c.LinkDowns, c.LinkUps)
	}
	if plan.Halt != nil && c.Halts != c.Restarts {
		t.Errorf("horizon restore broken: %d halts vs %d restarts", c.Halts, c.Restarts)
	}
	return fp, n.PoolOutstanding()
}

// TestPlanPoolOwnership is the fault plane's core safety property: for any
// plan and any seed, a drained run leaks no pool packets — every packet the
// injector dropped mid-flight (link down, loss, halted switch) was released
// exactly once — at one and at two shards.
func TestPlanPoolOwnership(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		plan := randomPlan(seed, 80*sim.Millisecond)
		for _, shards := range []int{1, 2} {
			if _, leaked := chaosRun(t, plan, shards); leaked != 0 {
				t.Errorf("seed %d shards %d: leaked %d pool packets", seed, shards, leaked)
			}
		}
	}
}

// FuzzFaultPlanDeterminism fuzzes the determinism contract: any plan seed
// must produce byte-identical fault counts and traffic totals on a rerun
// and at two shards, and leak nothing on either.
func FuzzFaultPlanDeterminism(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		plan := randomPlan(seed, 40*sim.Millisecond)
		one, leaked1 := chaosRun(t, plan, 1)
		again, _ := chaosRun(t, plan, 1)
		two, leaked2 := chaosRun(t, plan, 2)
		if one != again {
			t.Errorf("seed %d diverges on a rerun:\n  1: %s\n  2: %s", seed, one, again)
		}
		if one != two {
			t.Errorf("seed %d diverges across shard counts:\n  shards=1: %s\n  shards=2: %s", seed, one, two)
		}
		if leaked1 != 0 || leaked2 != 0 {
			t.Errorf("seed %d leaked pool packets: shards=1 %d, shards=2 %d", seed, leaked1, leaked2)
		}
	})
}
