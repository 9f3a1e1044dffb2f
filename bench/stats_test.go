package bench

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentiles(t *testing.T) {
	xs := seq(101) // 1..101
	for _, c := range []struct{ p, want float64 }{{50, 51}, {95, 96}, {99, 100}, {0, 1}, {100, 101}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..101 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("p50 of {1,2} = %v, want 1.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestTailPercentile pins the rule "the highest percentile with at
// least ten samples beyond it".
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 100}, {19, 100}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(data, n=4), the
// rule a metric's spread is judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}}, // Python extrapolates too
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}
