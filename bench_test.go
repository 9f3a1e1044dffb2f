package authradio_test

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 6), each regenerating the experiment at a reduced
// preset and reporting the headline quantity as a custom metric. Run
// the paper-scale presets with `go run ./cmd/rbexp -exp all -full`.

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"authradio/internal/experiment"
)

func runExperiment(b *testing.B, name string) [][]experiment.Table {
	b.Helper()
	runner := experiment.Registry()[name]
	if runner == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	out := make([][]experiment.Table, 0, b.N)
	for i := 0; i < b.N; i++ {
		out = append(out, runner(experiment.Options{Seed: 1}))
	}
	return out
}

// cellFloat parses a numeric table cell ("7.7x" -> 7.7), failing the
// benchmark on anything unparseable: silently reporting 0 would mask a
// regression in the experiment pipeline as a plausible metric.
func cellFloat(b *testing.B, s string) float64 {
	b.Helper()
	trimmed := strings.TrimSuffix(strings.TrimSpace(s), "x")
	v, err := strconv.ParseFloat(trimmed, 64)
	if err != nil {
		b.Fatalf("unparseable table cell %q: %v", s, err)
	}
	return v
}

// BenchmarkFig5Crash regenerates Figure 5 (completion % vs deployment
// density under crash failures, four protocol variants).
func BenchmarkFig5Crash(b *testing.B) {
	tables := runExperiment(b, "fig5")
	t := tables[0][0]
	// Report the densest cell's NeighborWatchRB completion.
	b.ReportMetric(cellFloat(b, t.Rows[len(t.Rows)-1][1]), "completion%")
}

// BenchmarkJamming regenerates the Section 6.1 jamming experiment
// (completion delay vs per-jammer budget; the paper reports a linear
// relationship).
func BenchmarkJamming(b *testing.B) {
	tables := runExperiment(b, "jamming")
	fit := tables[0][1]
	b.ReportMetric(cellFloat(b, fit.Rows[0][2]), "r2")
}

// BenchmarkFig6Lying regenerates Figure 6 (% of delivered messages that
// are correct vs % of lying devices).
func BenchmarkFig6Lying(b *testing.B) {
	tables := runExperiment(b, "fig6")
	t := tables[0][0]
	// Correctness of NeighborWatchRB at the highest liar fraction.
	b.ReportMetric(cellFloat(b, t.Rows[len(t.Rows)-1][1]), "correct%")
}

// BenchmarkFig7Density regenerates Figure 7 (max % Byzantine tolerated
// for >=90% correct delivery, vs density).
func BenchmarkFig7Density(b *testing.B) {
	tables := runExperiment(b, "fig7")
	t := tables[0][0]
	b.ReportMetric(cellFloat(b, t.Rows[len(t.Rows)-1][2]), "maxByz%")
}

// BenchmarkClustered regenerates the Section 6.2 clustered-deployment
// experiment (the paper reports up to +10% correctness from clustering).
func BenchmarkClustered(b *testing.B) {
	tables := runExperiment(b, "clustered")
	t := tables[0][0]
	// Correctness delta: clustered-with-liars minus uniform-with-liars.
	delta := cellFloat(b, t.Rows[3][3]) - cellFloat(b, t.Rows[1][3])
	b.ReportMetric(delta, "clusterGain%")
}

// BenchmarkMapSize regenerates the Section 6.2 map-size scaling
// experiment (runtime linear in diameter).
func BenchmarkMapSize(b *testing.B) {
	tables := runExperiment(b, "mapsize")
	fit := tables[0][1]
	b.ReportMetric(cellFloat(b, fit.Rows[0][0]), "r2")
}

// BenchmarkEpidemicComparison regenerates the Section 6.2 epidemic
// comparison (the paper reports NeighborWatchRB ~7.7x slower).
func BenchmarkEpidemicComparison(b *testing.B) {
	tables := runExperiment(b, "epidemic")
	sum := tables[0][1]
	b.ReportMetric(cellFloat(b, sum.Rows[0][0]), "slowdown")
}

// BenchmarkTheoryBetaD regenerates the Theorem 5 budget-scaling check
// (time linear in the Byzantine budget).
func BenchmarkTheoryBetaD(b *testing.B) {
	tables := runExperiment(b, "theory")
	fits := tables[0][2]
	b.ReportMetric(cellFloat(b, fits.Rows[0][2]), "r2_beta")
}

// BenchmarkTheoryMsgLen regenerates the Theorem 5 message-length check
// (time affine in |message|, the log|Sigma| term).
func BenchmarkTheoryMsgLen(b *testing.B) {
	tables := runExperiment(b, "theory")
	fits := tables[0][2]
	b.ReportMetric(cellFloat(b, fits.Rows[1][2]), "r2_msglen")
}

// BenchmarkDualMode regenerates the dual-mode conjecture table
// (epidemic payload + NeighborWatchRB digest).
func BenchmarkDualMode(b *testing.B) {
	tables := runExperiment(b, "dualmode")
	t := tables[0][0]
	b.ReportMetric(cellFloat(b, t.Rows[0][4]), "slowdown")
}

// benchDenseRound measures per-round channel-resolution cost on
// maximally contended rounds: 2048 devices at ~1 per unit² over a
// Friis medium, a rotating 1/8 of them transmitting each round. The
// Linear/Indexed pair tracks the speedup of the spatially indexed
// resolution over the legacy full scan.
func benchDenseRound(b *testing.B, linear bool) {
	e := experiment.DenseRoundEngine(2048, linear, 9)
	experiment.DenseRounds(e, 8) // warm up index storage and calendars
	b.ResetTimer()
	experiment.DenseRounds(e, uint64(b.N))
}

func BenchmarkDenseRoundLinear(b *testing.B)  { benchDenseRound(b, true) }
func BenchmarkDenseRoundIndexed(b *testing.B) { benchDenseRound(b, false) }

// BenchmarkDenseRound4096 is the 4096-device indexed dense round, the
// engine-overhaul tracking number (PR 2 target: ≥1.3x over the PR 1
// engine, measured ~1.8x).
func BenchmarkDenseRound4096(b *testing.B) {
	e := experiment.DenseRoundEngine(4096, false, 9)
	experiment.DenseRounds(e, 8)
	b.ResetTimer()
	experiment.DenseRounds(e, uint64(b.N))
}

// benchDenseScale is the production-scale dense round: n devices at
// ~1 per unit² over a Friis medium, a rotating 1/8 transmitting each
// round. Beyond wall time it reports the two scale quantities the CI
// gate budgets: ns/device (per-round resolution cost per device) and
// bytes/device (steady-state engine heap footprint per device,
// measured after warm-up so all reusable scratch is included).
func benchDenseScale(b *testing.B, n int) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	e := experiment.DenseRoundEngine(n, false, 9)
	experiment.DenseRounds(e, 2) // warm up index storage, wheel, scratch
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ResetTimer()
	experiment.DenseRounds(e, uint64(b.N))
	b.StopTimer()
	dev := float64(e.Devices())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/dev, "ns/device")
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/dev, "bytes/device")
	runtime.KeepAlive(e)
}

// BenchmarkDenseRound65536 and BenchmarkDenseRound262144 are the scale
// suite: run in CI with -count 3 -benchtime 1x and gated by
// cmd/benchgate on both ns/op and the bytes/device budget (see
// .github/workflows/ci.yml, bench job, and `make bench-scale`).
func BenchmarkDenseRound65536(b *testing.B)  { benchDenseScale(b, 65536) }
func BenchmarkDenseRound262144(b *testing.B) { benchDenseScale(b, 262144) }

// BenchmarkDenseRound1M is the million-device round. It is opt-in
// (BENCH_SCALE_1M=1): a single round resolves ~1M devices and the
// engine build alone takes seconds, so PR CI stays bounded and only
// the nightly/workflow_dispatch path pays for it.
func BenchmarkDenseRound1M(b *testing.B) {
	if os.Getenv("BENCH_SCALE_1M") == "" {
		b.Skip("million-device bench is opt-in: set BENCH_SCALE_1M=1")
	}
	benchDenseScale(b, 1_000_000)
}

// benchDenseRoundDisk is the dense workload over the second built-in
// medium: the analytical disk channel on an L-infinity integer grid
// (2116 devices, 46×46).
func benchDenseRoundDisk(b *testing.B, linear bool) {
	e := experiment.DenseRoundDiskEngine(2048, linear)
	experiment.DenseRounds(e, 8)
	b.ResetTimer()
	experiment.DenseRounds(e, uint64(b.N))
}

func BenchmarkDenseRoundDiskLinear(b *testing.B) { benchDenseRoundDisk(b, true) }
func BenchmarkDenseRoundDisk(b *testing.B)       { benchDenseRoundDisk(b, false) }

// BenchmarkSingleBroadcastNW measures one end-to-end NeighborWatchRB
// broadcast (the library's core operation) for ns/op tracking.
func BenchmarkSingleBroadcastNW(b *testing.B) {
	s := experiment.Scenario{
		Name: "bench", ProtocolName: "NeighborWatchRB", Deploy: experiment.GridDeploy,
		GridW: 9, Range: 2, MsgBits: 0b1011, MsgLen: 4, Seed: 1, MaxRounds: 500_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllComplete {
			b.Fatal("broadcast incomplete")
		}
	}
}

// BenchmarkSingleBroadcastMP measures one end-to-end MultiPathRB
// broadcast at tolerance t=1.
func BenchmarkSingleBroadcastMP(b *testing.B) {
	s := experiment.Scenario{
		Name: "bench", ProtocolName: "MultiPathRB/t1", Deploy: experiment.GridDeploy,
		GridW: 7, Range: 2, MsgBits: 0b1011, MsgLen: 3, Seed: 1, MaxRounds: 3_000_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllComplete {
			b.Fatal("broadcast incomplete")
		}
	}
}

// BenchmarkSingleBroadcastEpidemic measures one end-to-end epidemic
// flood.
func BenchmarkSingleBroadcastEpidemic(b *testing.B) {
	s := experiment.Scenario{
		Name: "bench", ProtocolName: "Epidemic", Deploy: experiment.GridDeploy,
		GridW: 9, Range: 2, MsgBits: 0b1011, MsgLen: 4, Seed: 1, MaxRounds: 500_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllComplete {
			b.Fatal("flood incomplete")
		}
	}
}
