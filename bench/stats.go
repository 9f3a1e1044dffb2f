package bench

import (
	"math"
	"slices"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs by
// linear interpolation between closest ranks; NaN for no samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// TailPercentile returns the highest percentile of the ladder 50, 90,
// 95, 99, 99.9, 99.99 that leaves at least ten of n samples beyond it,
// so a tail figure always rests on ten or more observations. With fewer
// than 20 samples no rung qualifies and it returns 100 (the maximum).
func TailPercentile(n int) float64 {
	// Rungs in hundredths of a percent keep the test in exact integers.
	for _, p := range []int{9999, 9990, 9900, 9500, 9000, 5000} {
		if n*(10000-p) >= 10*10000 {
			return float64(p) / 100
		}
	}
	return 100
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs with the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the rule the run-to-run spread of a
// benchmark metric is judged by. It needs at least two samples; with
// one, all three are that sample.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}
