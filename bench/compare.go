package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// ResultsFile is a set of runs: what `rbbench -out` appends to and
// `rbbench compare` reads.
type ResultsFile struct {
	Note string   `json:"note,omitempty"`
	Runs []Result `json:"runs"`
}

// ReadResults reads a results file.
func ReadResults(path string) (ResultsFile, error) {
	var f ResultsFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// AppendResults adds runs to the results file at path, creating it if
// needed.
func AppendResults(path string, runs ...Result) error {
	f, err := ReadResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	return writeJSON(path, f)
}

// Bound is one end-to-end metric's entry in BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ReadBounds reads the end-to-end metrics and their regression bounds
// from the BENCHMARK.json at the repository root.
func ReadBounds(root string) ([]Bound, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, b := range spec.EndToEnd {
		if b.Better != "lower" && b.Better != "higher" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s: better must be lower or higher, not %q", b.Name, b.Better)
		}
	}
	return spec.EndToEnd, nil
}

// The verdicts of a comparison row.
const (
	Improved   = "improved"
	Within     = "within bound"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Row compares one (workload, metric) pair across two sets of runs.
type Row struct {
	Workload, Metric string
	// Parent and Change are each side's first quartile, median and third
	// quartile.
	Parent, Change [3]float64
	// Delta is how much worse the change's median is than the parent's,
	// as a share of the parent's (negative: better).
	Delta   float64
	Bound   float64
	Verdict string
}

// values returns one metric of one workload over the untraced runs.
func values(runs []Result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict judges change against parent for one metric. A row whose
// parent runs spread wider than the bound is unresolved, unless every
// change run beats every parent run. A regression is a median worse by
// more than the bound; an improvement is a median better by more than
// the parent's quartile spread with the change winning at least nine in
// ten of the runs paired in order.
func verdict(parent, change []float64, lowerBetter bool, bound float64) Row {
	var row Row
	row.Parent[0], row.Parent[1], row.Parent[2] = Quartiles(parent)
	row.Change[0], row.Change[1], row.Change[2] = Quartiles(change)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	better := func(c, p float64) bool { return sign*(c-p) < 0 }
	row.Delta = sign * (row.Change[1] - row.Parent[1]) / row.Parent[1]
	row.Bound = bound
	spread := (row.Parent[2] - row.Parent[0]) / row.Parent[1]
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	gain := -row.Delta > spread && wins*10 >= pairs*9
	switch {
	case allBetter && gain:
		row.Verdict = Improved
	case allBetter:
		row.Verdict = Within
	case spread > bound:
		row.Verdict = Unresolved
	case row.Delta > bound:
		row.Verdict = Regressed
	case gain:
		row.Verdict = Improved
	default:
		row.Verdict = Within
	}
	return row
}

// failedFrac is failed checks over operations attempted across a
// workload's runs.
func failedFrac(runs []Result, workload string) (float64, bool) {
	att, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			att += r.Attempted
			failed += r.Failed
		}
	}
	if att == 0 {
		return 0, false
	}
	return float64(failed) / float64(att), true
}

// Compare judges every (workload, end-to-end metric) pair present on
// both sides and writes one row each, then one failed_frac row per
// workload. It reports whether the change passes: no regressed row and
// no workload whose failed_frac rose.
func Compare(w io.Writer, parent, change []Result, bounds []Bound) ([]Row, bool) {
	var rows []Row
	ok := true
	fmt.Fprintf(w, "%-18s %-17s %-34s %-34s %8s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "delta", "verdict")
	for _, wl := range workloadsOf(parent, change) {
		for _, b := range bounds {
			p, c := values(parent, wl, b.Name), values(change, wl, b.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			row := verdict(p, c, b.Better == "lower", b.Bound)
			row.Workload, row.Metric = wl, b.Name
			rows = append(rows, row)
			ok = ok && row.Verdict != Regressed
			fmt.Fprintf(w, "%-18s %-17s %-34s %-34s %+7.1f%%  %s (bound %.0f%%)\n", wl, b.Name,
				side(row.Parent, b.Unit), side(row.Change, b.Unit), 100*row.Delta, row.Verdict, 100*b.Bound)
		}
		pf, okP := failedFrac(parent, wl)
		cf, okC := failedFrac(change, wl)
		if okP && okC {
			v := "ok"
			if cf > pf {
				v, ok = "rose", false
			}
			fmt.Fprintf(w, "%-18s %-17s %-34.4g %-34.4g %8s  %s\n", wl, "failed_frac", pf, cf, "", v)
		}
	}
	return rows, ok
}

func side(q [3]float64, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g %.4g]", q[1], unit, q[0], q[2])
}

// workloadsOf lists the workloads both sides ran, in run order.
func workloadsOf(a, b []Result) []string {
	has := func(rs []Result, wl string) bool {
		return slices.ContainsFunc(rs, func(r Result) bool { return r.Workload == wl })
	}
	var out []string
	for _, wl := range Workloads {
		if has(a, wl) && has(b, wl) {
			out = append(out, wl)
		}
	}
	return out
}
