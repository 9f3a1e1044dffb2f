// Command rbbench runs the repository's benchmark (package
// authradio/bench; bench/README.md defines the workloads and metrics).
//
// Usage:
//
//	rbbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file] [-root dir]
//	rbbench compare [-root dir] parent.json change.json
//	rbbench reference
//
// Without -workload it runs every workload in turn. Each metric is
// printed as one "workload metric value unit" line; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. -trace 1 is the separate traced run: per-layer
// metrics instead of end-to-end ones, with span files under
// .bench_build/spans. -out appends the results to a JSON results file,
// the input of compare, which judges every (workload, end-to-end
// metric) pair of two such files against the bounds in BENCHMARK.json
// and exits 1 on any regression or on a higher failed_frac. reference
// rewrites bench/testdata/reference.json, the seed-1 broadcast results
// the runs are checked against.
//
// rbbench sets GOMAXPROCS to 2: the benchmark's load shape is two
// engine workers, two server workers and two client connections.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"authradio/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compare(args[1:], stdout, stderr)
		case "reference":
			return reference(args[1:], stderr)
		}
	}
	fs := flag.NewFlagSet("rbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all of "+strings.Join(bench.Workloads, ", ")+")")
	seed := fs.Uint64("seed", 1, "seed every input is derived from (>= 1)")
	seconds := fs.Float64("seconds", 20, "measured time per workload")
	trace := fs.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	out := fs.String("out", "", "append the results to this JSON results file")
	root := fs.String("root", "", "repository root (default: found upward from the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seed == 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "rbbench: want flags only, -trace 0 or 1, -seed >= 1 and -seconds > 0")
		return 2
	}
	dir, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(2)
	cfg := bench.Config{Root: dir, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Log: stderr}
	if cfg.Trace {
		cfg.SpansDir = filepath.Join(dir, ".bench_build", "spans")
	}
	names := bench.Workloads
	if *workload != "" {
		names = []string{*workload}
	}
	defs := bench.EndToEnd
	if cfg.Trace {
		defs = bench.PerLayer
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	var results []bench.Result
	for _, name := range names {
		res, err := bench.Run(name, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "rbbench:", err)
			return 1
		}
		for _, d := range defs {
			fmt.Fprintf(w, "%s %s %v %s\n", name, d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(w, "%s failed_frac %v ratio\n", name, res.FailedFrac())
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "rbbench: %s: check failed: %s\n", name, f)
		}
		results = append(results, res)
	}
	if *out != "" {
		if err := bench.AppendResults(*out, results...); err != nil {
			fmt.Fprintln(stderr, "rbbench:", err)
			return 1
		}
	}
	last := summary{Correct: true, Metrics: map[string]bench.Metric{}}
	for _, res := range results {
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(results) > 1 {
				k = res.Workload + "/" + k
			}
			last.Metrics[k] = m
		}
	}
	buf, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", buf)
	return 0
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]bench.Metric `json:"metrics"`
}

// findRoot returns dir, or else the nearest directory at or above the
// working directory whose go.mod declares module authradio.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if buf, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil && strings.HasPrefix(string(buf), "module authradio\n") {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", errors.New("no directory at or above the working directory holds module authradio's go.mod; pass -root")
		}
	}
}

func compare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "repository root holding BENCHMARK.json (default: found upward)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: rbbench compare [-root dir] parent.json change.json")
		return 2
	}
	dir, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	bounds, err := bench.ReadBounds(dir)
	if err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	parent, err := bench.ReadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	change, err := bench.ReadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	if _, ok := bench.Compare(stdout, parent.Runs, change.Runs, bounds); !ok {
		return 1
	}
	return 0
}

func reference(args []string, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: rbbench reference")
		return 2
	}
	dir, err := findRoot("")
	if err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(2)
	if err := bench.WriteReference(filepath.Join(dir, "bench", "testdata", "reference.json")); err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	return 0
}
