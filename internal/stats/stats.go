// Package stats provides the small statistics toolkit the experiments use:
// CDFs/fractiles (Figure 1's top panel) and time series buckets (its bottom
// panel).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF accumulates samples and reports empirical fractiles.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sortSamples() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-th empirical quantile, q in [0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sortSamples()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	idx := q * float64(len(c.samples)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c.samples) {
		return c.samples[lo]
	}
	return c.samples[lo]*(1-frac) + c.samples[lo+1]*frac
}

// FractionAtMost returns the empirical CDF value at x: P[sample <= x].
func (c *CDF) FractionAtMost(x float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sortSamples()
	return float64(sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))) / float64(len(c.samples))
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// Max returns the largest sample.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sortSamples()
	return c.samples[len(c.samples)-1]
}

// Fractiles renders quantiles at the given points, e.g. for table output.
func (c *CDF) Fractiles(qs ...float64) string {
	var b strings.Builder
	for i, q := range qs {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "p%02.0f=%.1f", q*100, c.Quantile(q))
	}
	return b.String()
}

// TimeSeries buckets (time, value) observations into fixed-width bins,
// recording the mean and max per bin — enough to reproduce the queue
// occupancy evolution plot of Figure 1b.
type TimeSeries struct {
	BinWidth float64 // seconds
	bins     map[int]*tsBin
}

type tsBin struct {
	sum   float64
	n     int
	max   float64
	first bool
}

// NewTimeSeries creates a series with the given bin width in seconds.
func NewTimeSeries(binWidth float64) *TimeSeries {
	return &TimeSeries{BinWidth: binWidth, bins: make(map[int]*tsBin)}
}

// Add records an observation at time t (seconds).
func (ts *TimeSeries) Add(t, v float64) {
	idx := int(t / ts.BinWidth)
	b := ts.bins[idx]
	if b == nil {
		b = &tsBin{first: true}
		ts.bins[idx] = b
	}
	b.sum += v
	b.n++
	if b.first || v > b.max {
		b.max = v
		b.first = false
	}
}

// Point is one bin of a time series.
type Point struct {
	T    float64 // bin start time, seconds
	Mean float64
	Max  float64
	N    int
}

// Points returns the bins in time order.
func (ts *TimeSeries) Points() []Point {
	idxs := make([]int, 0, len(ts.bins))
	for i := range ts.bins {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]Point, 0, len(idxs))
	for _, i := range idxs {
		b := ts.bins[i]
		out = append(out, Point{
			T:    float64(i) * ts.BinWidth,
			Mean: b.sum / float64(b.n),
			Max:  b.max,
			N:    b.n,
		})
	}
	return out
}
