package bench

import (
	"math"
	"sort"
)

// Summary is the order statistics the report prints beside every median.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes min, quartiles, median and max of xs. Quartiles use
// the same exclusive method as Python's statistics.quantiles(xs, n=4), so
// the spreads printed here are the ones an outside checker computes.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Q1, s.Median, s.Q3 = quantile(v, 1), quantile(v, 2), quantile(v, 3)
	return s
}

// quantile returns the q-th quartile of sorted v by the exclusive method:
// position q(n+1)/4 (1-based), linearly interpolated between the two
// neighbouring order statistics (extrapolated when the position falls
// outside them, as Python does for very small samples).
func quantile(v []float64, q int) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	j := q * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := q*(n+1) - j*4
	return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
}

// Median returns the median of xs (0 when empty).
func Median(xs []float64) float64 { return Summarize(xs).Median }

// Spread is the interquartile range as a share of the median — the
// run-to-run noise figure a metric's bound is judged against.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// p90 returns the 90th percentile of xs (0 when empty), linearly
// interpolated between the order statistics around position 0.9(n-1).
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	pos := 0.9 * float64(len(v)-1)
	lo := int(pos)
	if lo == len(v)-1 {
		return v[lo]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}
