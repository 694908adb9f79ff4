package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := c.Quantile(0.5); math.Abs(got-50.5) > 0.01 {
		t.Errorf("p50 = %v", got)
	}
	if c.N() != 100 {
		t.Errorf("N = %d", c.N())
	}
	if got := c.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if got := c.Max(); got != 100 {
		t.Errorf("max = %v", got)
	}
}

func TestCDFFractionAtMost(t *testing.T) {
	var c CDF
	// 80% zeros, 20% tens — the Figure 1 claim shape ("one of the queues is
	// empty for 80% of the time instants").
	for i := 0; i < 80; i++ {
		c.Add(0)
	}
	for i := 0; i < 20; i++ {
		c.Add(10)
	}
	if got := c.FractionAtMost(0); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("F(0) = %v", got)
	}
	if got := c.FractionAtMost(9.99); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("F(9.99) = %v", got)
	}
	if got := c.FractionAtMost(10); got != 1 {
		t.Errorf("F(10) = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) || !math.IsNaN(c.FractionAtMost(1)) || !math.IsNaN(c.Max()) {
		t.Error("empty CDF should return NaN")
	}
}

func TestCDFQuantileMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		var c CDF
		for i := 0; i < int(n)+1; i++ {
			c.Add(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(1.0)
	ts.Add(0.1, 2)
	ts.Add(0.9, 4)
	ts.Add(1.5, 10)
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d bins", len(pts))
	}
	if pts[0].T != 0 || pts[0].Mean != 3 || pts[0].Max != 4 || pts[0].N != 2 {
		t.Errorf("bin 0: %+v", pts[0])
	}
	if pts[1].T != 1 || pts[1].Mean != 10 || pts[1].Max != 10 {
		t.Errorf("bin 1: %+v", pts[1])
	}
}

func TestTimeSeriesMaxTracksNegative(t *testing.T) {
	ts := NewTimeSeries(1.0)
	ts.Add(0.1, -5)
	ts.Add(0.2, -7)
	if got := ts.Points()[0].Max; got != -5 {
		t.Errorf("max = %v", got)
	}
}

func TestFractilesString(t *testing.T) {
	var c CDF
	for i := 0; i < 10; i++ {
		c.Add(float64(i))
	}
	s := c.Fractiles(0.5, 0.9)
	if s == "" {
		t.Error("empty fractiles string")
	}
}
