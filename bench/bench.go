// Package bench is the repository's benchmark. It runs the paper's
// protocols the way people use this repository — single broadcasts of
// NeighborWatchRB, MultiPathRB and the 1Hop building block, dense
// rounds at scale, and the `rbexp serve` sweep service — checks every
// output, and reports end-to-end metrics (what a user waits for) and,
// in a separate traced run, per-layer metrics named after the
// repository's modules. cmd/rbbench is its command line; README.md
// defines the workloads, metrics and bounds.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// Config selects what one benchmark run does.
type Config struct {
	// Root is the repository root: the directory holding module
	// authradio's go.mod (the sweep-serve workload builds cmd/rbexp from
	// it and reads its goldens).
	Root string
	// Seed derives every input of the run: deployments, messages and
	// request sequences.
	Seed uint64
	// Seconds is how long a workload measures operations.
	Seconds float64
	// Trace selects the traced run, which reports per-layer metrics
	// instead of end-to-end ones.
	Trace bool
	// Toy shrinks every workload to test size.
	Toy bool
	// SpansDir, when set, receives the traced run's span file.
	SpansDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

func (c Config) budget() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Failures describes the first failed checks.
	Failures []string `json:"failures,omitempty"`
}

// FailedFrac is failed checks divided by operations attempted.
func (r Result) FailedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// The end-to-end metrics. Every workload reports each of them; what an
// "operation" is depends on the workload (see README.md).
const (
	MetricSetup      = "setup_s"
	MetricOpP50      = "op_p50_ms"
	MetricOpTail     = "op_tail_ms"
	MetricThroughput = "throughput_per_s"
	MetricMem        = "mem_mb"
)

// MetricDef names a metric and its unit.
type MetricDef struct{ Name, Unit string }

// EndToEnd lists the metrics of an untraced run.
var EndToEnd = []MetricDef{
	{MetricSetup, "s"}, {MetricOpP50, "ms"}, {MetricOpTail, "ms"}, {MetricThroughput, "1/s"}, {MetricMem, "MB"},
}

// PerLayer lists the metrics of a traced run. Every workload reports
// every one; a layer that is not on a workload's path reads 0 there
// (README.md says which).
var PerLayer = []MetricDef{
	{"topo.deploy_s", "s"}, {"core.build_s", "s"},
	{"sim.clock.self_s", "s"}, {"sim.clock.rounds", "count"}, {"sim.clock.wakes", "count"}, {"sim.clock.ns_per_wake", "ns"},
	{"sim.phaseA.wall_s", "s"}, {"sim.phaseA.ns_per_wake", "ns"},
	{"proto.wake_busy_s", "s"}, {"proto.deliver_busy_s", "s"}, {"proto.ns_per_call", "ns"},
	{"sim.phaseB.wall_s", "s"}, {"sim.phaseB.listeners", "count"}, {"sim.phaseB.txs", "count"},
	{"radio.txset_build_s", "s"}, {"radio.txset_rounds", "count"},
	{"radio.cell_begin_busy_s", "s"}, {"radio.cells", "count"},
	{"radio.cell_observe_busy_s", "s"}, {"radio.cell_listeners", "count"},
	{"radio.cand_per_listener", "count"}, {"radio.cand_in_range_frac", "ratio"},
	{"radio.linear_observe_busy_s", "s"}, {"radio.linear_listeners", "count"},
	{"core.stop_s", "s"}, {"core.summarize_s", "s"},
	{"runtime.alloc_bytes_per_round", "B"}, {"runtime.gc_cycles", "count"},
	{"sweep.compute_ms_per_cell", "ms"}, {"sweep.cache_put_ms_per_cell", "ms"}, {"sweep.cache_get_ms_per_cell", "ms"},
	{"sweep.key_us_per_cell", "us"}, {"sweep.pool_idle_frac", "ratio"},
	{"serve.ttfb_ms_p50", "ms"}, {"serve.body_ms_p50", "ms"}, {"serve.bytes_per_req", "B"},
	{"serve.sweep_p50_ms", "ms"}, {"serve.tables_p50_ms", "ms"}, {"serve.warm_hit_frac", "ratio"},
	{"serve.warm_p999_ms", "ms"}, {"serve.req_per_s", "1/s"}, {"serve.server_rss_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// Workloads lists the workload names in run order.
var Workloads = []string{"nw-16k", "mp-t1-256", "onehop-cluster-8k", "dense-65k", "sweep-serve"}

var runners = map[string]func(Config, *recorder) error{
	"nw-16k":            func(c Config, r *recorder) error { return runBroadcast(nwSpec(c.Toy), c, r) },
	"mp-t1-256":         func(c Config, r *recorder) error { return runBroadcast(mpSpec(c.Toy), c, r) },
	"onehop-cluster-8k": func(c Config, r *recorder) error { return runBroadcast(onehopSpec(c.Toy), c, r) },
	"dense-65k":         runDense,
	"sweep-serve":       runSweepServe,
}

// Run runs one workload. Failed checks are counted in the result; an
// error means the workload could not run at all.
func Run(name string, cfg Config) (Result, error) {
	run, ok := runners[name]
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, Workloads)
	}
	if cfg.Seed == 0 {
		return Result{}, errors.New("bench: seed must be at least 1")
	}
	rec := &recorder{res: Result{Workload: name, Seed: cfg.Seed, Trace: cfg.Trace, Metrics: map[string]Metric{}}}
	runtime.GC()
	if err := run(cfg, rec); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := rec.complete(cfg.Trace); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	rec.res.Correct = rec.res.Failed == 0 && rec.res.Attempted > 0
	if cfg.Trace && cfg.SpansDir != "" && rec.spans != nil {
		if err := writeJSON(filepath.Join(cfg.SpansDir, fmt.Sprintf("%s-seed%d.json", name, cfg.Seed)), rec.spans); err != nil {
			return Result{}, err
		}
	}
	return rec.res, nil
}

// recorder collects a run's metrics, checks and spans.
type recorder struct {
	res   Result
	spans any
}

func (r *recorder) put(name string, v float64, unit string) { r.res.Metrics[name] = Metric{v, unit} }

// complete checks the reported metrics against the run's metric list
// and fills each per-layer metric the workload's path does not reach
// with 0.
func (r *recorder) complete(trace bool) error {
	defs := EndToEnd
	if trace {
		defs = PerLayer
	}
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	for _, name := range slices.Sorted(maps.Keys(r.res.Metrics)) {
		if u, m := want[name], r.res.Metrics[name]; u != m.Unit {
			return fmt.Errorf("bench: metric %s %s is not in the metric list", name, m.Unit)
		}
	}
	for _, d := range defs {
		if _, ok := r.res.Metrics[d.Name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("bench: end-to-end metric %s was not measured", d.Name)
		}
		r.put(d.Name, 0, d.Unit)
	}
	return nil
}

// check counts one attempted operation, failed when err is non-nil.
func (r *recorder) check(err error) {
	r.res.Attempted++
	if err == nil {
		return
	}
	r.res.Failed++
	if len(r.res.Failures) < 10 {
		r.res.Failures = append(r.res.Failures, err.Error())
	}
}

// maxTailPct caps the tail percentile. The warm service phase always has
// the samples for a p99, but over six runs of one binary its p99 ranged
// from 7.5 to 9.8 ms where its p95 ranged from 5.4 to 6.3 ms; the traced
// run's serve.warm_p999_ms keeps the far tail.
const maxTailPct = 95

// putOps reports the operation-time metrics of a run from its
// per-operation times in ms. The tail is read at the percentile that
// the workload's guaranteed minimum of operations supports, up to
// maxTailPct, so every run reports the same percentile.
func (r *recorder) putOps(ms []float64, minOps int) {
	r.put(MetricOpP50, Median(ms), "ms")
	r.put(MetricOpTail, Percentile(ms, min(TailPercentile(minOps), maxTailPct)), "ms")
}

const (
	// A run repeats its set-up at least minSetups times and, at full
	// size, until setupBudget has passed, at most maxSetups times, and
	// reports the median: a set-up of a few milliseconds is too noisy a
	// sample alone.
	minSetups   = 9
	maxSetups   = 100
	setupBudget = time.Second
)

// repeatSetup runs setup as often as the set-up rule above asks.
func repeatSetup(cfg Config, setup func() error) error {
	budget := setupBudget
	if cfg.Toy {
		budget = 0
	}
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < budget); i++ {
		if err := setup(); err != nil {
			return err
		}
	}
	return nil
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// liveHeapMB is the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// gcWork accumulates the Go runtime's allocation and collection work
// over the traced operations.
type gcWork struct {
	allocBytes, cycles uint64
	mark               runtime.MemStats
}

func (g *gcWork) start() { runtime.ReadMemStats(&g.mark) }

func (g *gcWork) stop() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.allocBytes += ms.TotalAlloc - g.mark.TotalAlloc
	g.cycles += uint64(ms.NumGC - g.mark.NumGC)
}

// putRuntime reports g per simulated round and per operation.
func (r *recorder) putRuntime(g gcWork, t *tracer) {
	r.put("runtime.alloc_bytes_per_round", float64(g.allocBytes)/float64(max(t.rounds, 1)), "B")
	r.put("runtime.gc_cycles", float64(g.cycles)/float64(max(t.ops, 1)), "count")
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
