package bench

import (
	"io"
	"path/filepath"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{70, 130, 90, 110, 60, 140, 100, 80, 120, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		want           string
	}{
		{"same", steady, steady, true, Within},
		{"slower", steady, scaled(steady, 1.3), true, Regressed},
		{"slightly slower", steady, scaled(steady, 1.05), true, Within},
		{"faster", steady, scaled(steady, 0.7), true, Improved},
		{"less throughput", steady, scaled(steady, 0.7), false, Regressed},
		{"more throughput", steady, scaled(steady, 1.3), false, Improved},
		{"noisy parent", noisy, scaled(noisy, 1.05), true, Unresolved},
		{"noisy parent, every change run faster", noisy, scaled(steady, 0.5), true, Improved},
	} {
		if got := verdict(c.parent, c.change, c.lowerBetter, 0.1).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	bounds := []Bound{{Name: MetricOpP50, Unit: "ms", Better: "lower", Bound: 0.1}, {Name: MetricThroughput, Unit: "1/s", Better: "higher", Bound: 0.1}}
	mk := func(op, tput float64, failed int) Result {
		return Result{Workload: "dense-65k", Attempted: 100, Failed: failed, Metrics: map[string]Metric{
			MetricOpP50: {op, "ms"}, MetricThroughput: {tput, "1/s"}}}
	}
	parent := []Result{mk(10, 5, 0), mk(10.1, 5, 0), mk(9.9, 5, 0)}
	rows, ok := Compare(io.Discard, parent, []Result{mk(10, 5, 0), mk(10, 5.1, 0), mk(10.1, 4.9, 0)}, bounds)
	if !ok || len(rows) != 2 {
		t.Fatalf("an unchanged run: ok=%v, %d rows", ok, len(rows))
	}
	if _, ok := Compare(io.Discard, parent, []Result{mk(13, 5, 0), mk(13, 5, 0), mk(13, 5, 0)}, bounds); ok {
		t.Error("a 30% slower change passed")
	}
	if _, ok := Compare(io.Discard, parent, []Result{mk(10, 5, 1), mk(10, 5, 0), mk(10, 5, 0)}, bounds); ok {
		t.Error("a change with a failed check passed")
	}
}

func TestResultsFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	r := Result{Workload: "nw-16k", Seed: 3, Correct: true, Attempted: 2, Metrics: map[string]Metric{MetricSetup: {0.1, "s"}}}
	for i := 0; i < 2; i++ {
		if err := AppendResults(path, r); err != nil {
			t.Fatal(err)
		}
	}
	f, err := ReadResults(path)
	if err != nil || len(f.Runs) != 2 || f.Runs[1].Metrics[MetricSetup].Value != 0.1 {
		t.Fatalf("read back %+v, %v", f, err)
	}
	bounds, err := ReadBounds(repoRoot(t))
	if err != nil || len(bounds) != len(EndToEnd) {
		t.Fatalf("ReadBounds: %d bounds, %v", len(bounds), err)
	}
}
