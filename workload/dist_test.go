package workload

import (
	"math"
	"math/rand"
	"testing"

	"minions/internal/sim"
)

func TestFixedDist(t *testing.T) {
	d := Fixed(10_000)
	if d.Mean() != 10_000 {
		t.Fatalf("Fixed mean = %g, want 10000", d.Mean())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if n := d.sample(rng); n != 10_000 {
			t.Fatalf("Fixed sample = %d", n)
		}
	}
}

func TestEmpiricalDistShape(t *testing.T) {
	for _, d := range []SizeDist{WebSearch(), DataMining()} {
		if d.Mean() <= 0 {
			t.Fatalf("%s mean = %g", d.Name(), d.Mean())
		}
		// Quantile tables must be non-decreasing.
		for i := 1; i < len(d.table); i++ {
			if d.table[i] < d.table[i-1] {
				t.Fatalf("%s quantile table decreases at %d", d.Name(), i)
			}
		}
		// Sampling must stay within the CDF's support.
		rng := rand.New(rand.NewSource(7))
		lo, hi := math.MaxFloat64, 0.0
		for i := 0; i < 50_000; i++ {
			v := float64(d.sample(rng))
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo < 1 || hi > 1.1e9 {
			t.Fatalf("%s samples out of range [%g, %g]", d.Name(), lo, hi)
		}
	}
	// Heavy tails: data-mining's mean is far above its median.
	dm := DataMining()
	if med := dm.quantileRaw(0.5); dm.Mean() < 10*med {
		t.Errorf("data-mining mean %g not >> median %g", dm.Mean(), med)
	}
}

func TestEmpiricalSampleMeanMatches(t *testing.T) {
	d := WebSearch()
	rng := rand.New(rand.NewSource(11))
	var sum float64
	const n = 400_000
	for i := 0; i < n; i++ {
		sum += float64(d.sample(rng))
	}
	got := sum / n
	if math.Abs(got-d.Mean())/d.Mean() > 0.05 {
		t.Fatalf("sample mean %g vs table mean %g (>5%% off)", got, d.Mean())
	}
}

func TestLognormalAndPareto(t *testing.T) {
	ln := Lognormal(math.Log(10_000), 1)
	// Lognormal median = exp(mu).
	if med := ln.quantileRaw(0.5); math.Abs(med-10_000)/10_000 > 0.02 {
		t.Fatalf("lognormal median %g, want ~10000", med)
	}
	p := Pareto(1.2, 1000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		v := p.sample(rng)
		if v < 1000 || v > 1<<30 {
			t.Fatalf("pareto sample %d out of [1000, 2^30]", v)
		}
	}
	if p.Mean() < 1000 {
		t.Fatalf("pareto mean %g", p.Mean())
	}
}

func TestClamped(t *testing.T) {
	d := WebSearch().Clamped(5000, 50_000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20_000; i++ {
		v := d.sample(rng)
		if v < 5000 || v > 50_000 {
			t.Fatalf("clamped sample %d out of [5000, 50000]", v)
		}
	}
	if d.Mean() < 5000 || d.Mean() > 50_000 {
		t.Fatalf("clamped mean %g out of bounds", d.Mean())
	}
}

func TestEmpiricalValidation(t *testing.T) {
	bad := [][]CDFPoint{
		nil,
		{{Bytes: 100, P: 1}},
		{{Bytes: 100, P: 0.5}, {Bytes: 50, P: 1}},    // bytes not increasing
		{{Bytes: 100, P: 0.5}, {Bytes: 200, P: 0.5}}, // P not increasing
		{{Bytes: 100, P: 0.5}, {Bytes: 200, P: 0.9}}, // does not end at 1
	}
	for i, pts := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			Empirical("bad", pts)
		}()
	}
}

func TestAliasTable(t *testing.T) {
	a := newAlias([]float64{9, 1})
	rng := rand.New(rand.NewSource(17))
	counts := [2]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[a.pick(rng)]++
	}
	frac := float64(counts[1]) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("weight-0.1 class drawn %.3f of the time, want ~0.1", frac)
	}
}

func TestDurDist(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	if d := FixedDur(5 * sim.Millisecond).sample(rng); d != 5*sim.Millisecond {
		t.Fatalf("FixedDur sample %d", d)
	}
	e := ExpDur(sim.Millisecond)
	var sum sim.Time
	for i := 0; i < 10_000; i++ {
		v := e.sample(rng)
		if v < 1 {
			t.Fatal("duration < 1 ns")
		}
		sum += v
	}
	mean := float64(sum) / 10_000
	if mean < 0.9e6 || mean > 1.1e6 {
		t.Fatalf("ExpDur mean %g ns, want ~1e6", mean)
	}
	p := ParetoDur(1.5, sim.Millisecond)
	for i := 0; i < 10_000; i++ {
		v := p.sample(rng)
		if v < sim.Millisecond || v > 1000*sim.Millisecond {
			t.Fatalf("ParetoDur sample %d out of bounds", v)
		}
	}
}

// TestTokenBucketPrecision drives the pacer's refill/wait math over an
// irregular schedule and checks the long-run admitted rate is exact: the
// nanosecond remainder accounting must not drift.
func TestTokenBucketPrecision(t *testing.T) {
	const rate = 7_777_777 // deliberately not divisible by 1e9
	b := tokenBucket{burstBits: 24_000}
	b.setRate(rate, 0)
	now := sim.Time(0)
	var sent int64
	const pkt = 12_000 // bits
	for i := 0; i < 5_000; i++ {
		b.refill(now)
		for b.take(pkt) {
			sent += pkt
		}
		now += b.wait(pkt)
	}
	// After the final wait the last packet hasn't been sent; admitted rate
	// over [0, now] must match the configured rate to within one packet.
	want := float64(rate) * float64(now) / 1e9
	if math.Abs(float64(sent)-want) > pkt+1 {
		t.Fatalf("admitted %d bits over %d ns, want %.0f (rate drift)", sent, now, want)
	}
}

func TestTokenBucketIdleCap(t *testing.T) {
	b := tokenBucket{burstBits: 8000}
	b.setRate(1_000_000, 0)
	// A huge idle gap must cap at the burst size without overflow.
	b.refill(sim.Time(math.MaxInt64 / 2))
	if b.bits != 8000 {
		t.Fatalf("bits after idle = %d, want burst cap 8000", b.bits)
	}
}
