// Command rbexp regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	rbexp -exp fig6              # one experiment, reduced preset
//	rbexp -exp all -full         # every experiment at paper scale
//	rbexp -exp jamming -reps 10  # override repetitions
//
// Experiments: fig5, jamming, fig6, fig7, clustered, mapsize, epidemic,
// theory, dualmode, ablation (see DESIGN.md for the per-experiment
// index), plus dense, a performance diagnostic comparing the spatially
// indexed channel resolution against the legacy linear scan on both
// built-in media (Friis over uniform deployments, disk over L-infinity
// grids), families, the protocol-family sweep enumerating every
// registered driver instance (core.Instances()) on one shared grid,
// matrix, the adversary-ladder matrix crossing every instance with
// a ladder of adversary mixes (liar fractions, per-jammer budgets,
// spoofers), and dropoff, the per-instance drop-off summary walking the
// same ladder until each protocol stops tolerating it. Both ladder
// sweeps take -mixes, a comma-separated list of compact mix labels
// ("clean,liar15,jam10b32") replacing the default ladder.
//
// -param name=value overlays a numeric driver knob on every cell
// (repeatable; a value that is not a number exits 2, and family
// presets still pin their own knobs). -json emits each experiment's tables as one
// machine-readable JSON document instead of aligned text; with a fixed
// seed the document is byte-identical across runs, which is what the
// CI golden checks diff.
//
// -cache <dir> attaches a persistent sweep-cell results cache: every
// repetition of every cell is content-addressed by its canonical
// sweep.CellKey, served from the cache when present and stored
// (atomically) after computing otherwise. A run killed mid-sweep and
// restarted with the same -cache dir resumes — it recomputes only the
// missing cells — and its output stays byte-identical to an uncached
// run. Valid seeds are 1..2^64-1: -seed 0 is rejected (the library
// would silently alias it to 1).
//
// The serve subcommand (`rbexp serve -addr :8080 -cache dir`) fronts
// the same cells with an HTTP/JSON API; see serve.go.
package main

import (
	"flag"
	"fmt"
	"os"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/sweep"

	_ "authradio/internal/protocols"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}
	var (
		exp      = flag.String("exp", "all", "experiment name or 'all'")
		full     = flag.Bool("full", false, "paper-scale parameters (slow)")
		seed     = flag.Uint64("seed", 1, "root random seed (>= 1)")
		reps     = flag.Int("reps", 0, "override repetitions per cell (0 = preset)")
		workers  = flag.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = flag.Bool("json", false, "emit one JSON document per experiment (stable for a fixed seed)")
		quiet    = flag.Bool("q", false, "suppress per-cell progress")
		mixes    = flag.String("mixes", "", "comma-separated adversary mixes overriding the ladder of the matrix/dropoff sweeps (e.g. clean,liar15,jam10b32,spoof10b16)")
		cacheDir = flag.String("cache", "", "persistent sweep-cell results cache directory (store-and-resume; empty = no cache)")
	)
	var params core.ParamFlag
	flag.Var(&params, "param", "driver knob name=number overlaid on every cell (repeatable)")
	flag.Parse()

	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "rbexp: -seed 0 is not a valid seed (valid seeds are 1..2^64-1; 0 would silently alias to 1)")
		os.Exit(2)
	}

	opt := experiment.Options{
		Full:    *full,
		Seed:    *seed,
		Reps:    *reps,
		Workers: *workers,
		Params:  params.Params,
	}
	var stats sweep.Stats
	if *cacheDir != "" {
		cache, err := sweep.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbexp: opening cache: %v\n", err)
			os.Exit(1)
		}
		opt.Cache = cache
		opt.Sweep = &stats
	}
	if *mixes != "" {
		ms, err := experiment.ParseMixes(*mixes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opt.Mixes = ms
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}

	reg := experiment.Registry()
	var names []string
	if *exp == "all" {
		names = experiment.Names()
	} else {
		if reg[*exp] == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %v\n", *exp, experiment.Names())
			os.Exit(2)
		}
		names = []string{*exp}
	}

	for _, name := range names {
		fmt.Fprintf(os.Stderr, "== running %s (full=%v) ==\n", name, *full)
		tables := reg[name](opt)
		if *jsonOut {
			if err := experiment.WriteJSON(os.Stdout, name, opt, tables); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		for _, tbl := range tables {
			if *csv {
				fmt.Printf("# %s\n", tbl.Title)
				if err := tbl.CSV(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println()
			} else {
				tbl.Fprint(os.Stdout)
			}
		}
	}
	if opt.Cache != nil {
		fmt.Fprintf(os.Stderr, "cache %s: %d executed, %d hits", *cacheDir, stats.Executed(), stats.Hits())
		if stats.Errors() > 0 {
			fmt.Fprintf(os.Stderr, ", %d WRITE ERRORS (resume incomplete)", stats.Errors())
		}
		fmt.Fprintln(os.Stderr)
	}
}
