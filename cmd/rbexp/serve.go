// The serve subcommand: rbexp as a sweep service. The experiment grid
// becomes an HTTP/JSON API in front of the persistent cell cache —
// many clients submitting sweep requests against a warm cache instead
// of one process, one shot:
//
//	rbexp serve -addr 127.0.0.1:8080 -cache /var/cache/rbexp
//
//	POST /sweep            submit an instance×mix grid; per-cell
//	                       results stream back as NDJSON in completion
//	                       order, closed by a {"done":true,...} trailer
//	                       with executed/hit counters for the request
//	GET  /results/<id>     one cached cell document by content address
//	GET  /tables/<exp>     the named experiment's aggregate JSON
//	                       (byte-identical to `rbexp -exp <exp> -json`),
//	                       computed through — and warming — the cache
//	GET  /healthz          liveness
//
// The server lives in package main, not internal/sweep, on purpose:
// HTTP serving needs wall-clock timeouts, and the rbvet determinism
// gate over internal/* stays meaningful when the nondeterministic edge
// is confined to the command layer. Every simulation the server runs
// is still bit-for-bit deterministic — that is exactly why a cached
// cell can be served to any client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/sweep"
)

func runServe(args []string) int {
	fs := flag.NewFlagSet("rbexp serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := fs.String("cache", "", "persistent sweep-cell results cache directory (required)")
	workers := fs.Int("workers", 0, "cell-execution workers per request (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "rbexp serve: -cache is required (the cache directory is the service's state)")
		return 2
	}
	cache, err := sweep.Open(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbexp serve: opening cache: %v\n", err)
		return 1
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: newServer(cache, *workers),
		// Sweeps stream for as long as the cells take, so only the
		// header read gets a deadline.
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(os.Stderr, "rbexp serve: listening on %s, cache %s\n", *addr, *cacheDir)
	if err := hs.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "rbexp serve: %v\n", err)
		return 1
	}
	return 0
}

// server handles the sweep-service routes over one shared cache. All
// state lives in the cache directory, so any number of server
// processes can share it (atomic entry writes make concurrent writers
// safe); the in-memory stats are cumulative per process and exported
// for tests.
type server struct {
	cache   *sweep.Cache
	workers int
	stats   sweep.Stats
	mux     *http.ServeMux
}

func newServer(cache *sweep.Cache, workers int) *server {
	s := &server{cache: cache, workers: workers, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("GET /results/{id}", s.handleResult)
	s.mux.HandleFunc("GET /tables/{exp}", s.handleTables)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// sweepRequest is the POST /sweep body. Empty lists select the full
// grid: every registered instance, the experiment's preset adversary
// dimension. Seed 0 (or absent) selects the default seed 1.
type sweepRequest struct {
	// Exp names the grid shape: "matrix" (default; instances × mixes)
	// or "families" (instances × the fixed 10%-liar families mix).
	Exp string `json:"exp"`
	// Instances restricts the protocol-instance axis (registry
	// names, aliases or instance names, any case; empty = all).
	Instances []string `json:"instances"`
	// Mixes restricts the adversary axis by compact label
	// ("clean", "liar15", "jam10b32"; matrix grid only; empty = the
	// default ladder).
	Mixes []string `json:"mixes"`
	Seed  uint64   `json:"seed"`
	Full  bool     `json:"full"`
	// Reps overrides repetitions per cell (0 = the grid's preset).
	Reps int `json:"reps"`
}

// cellLine is one streamed NDJSON result line.
type cellLine struct {
	I      int         `json:"i"`
	Label  string      `json:"label"`
	ID     string      `json:"id"`
	Key    string      `json:"key"`
	Cached bool        `json:"cached"`
	Result core.Result `json:"result"`
}

// doneLine closes the stream with the request's counters.
type doneLine struct {
	Done     bool   `json:"done"`
	Cells    int    `json:"cells"`
	Executed uint64 `json:"executed"`
	Hits     uint64 `json:"hits"`
	Errors   uint64 `json:"errors,omitempty"`
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	// Unknown keys are rejected: a misspelt field would otherwise be
	// ignored and the request would run the whole default grid.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Reps < 0 {
		http.Error(w, "reps must be >= 0", http.StatusBadRequest)
		return
	}
	// Unknown instances would panic deep in the scenario runner;
	// validate the whole request up front. Each name is replaced by
	// its canonical registry name, so an alias addresses the same
	// cells, labels and round caps as the name it resolves to.
	for i, inst := range req.Instances {
		drv, ok := core.Lookup(inst)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown instance %q (see core.Instances: %s)",
				inst, strings.Join(core.Instances(), ", ")), http.StatusBadRequest)
			return
		}
		req.Instances[i] = drv.Name()
	}
	var mixes []experiment.AdversaryMix
	if len(req.Mixes) > 0 {
		ms, err := experiment.ParseMixes(strings.Join(req.Mixes, ","))
		if err != nil {
			http.Error(w, "bad mixes: "+err.Error(), http.StatusBadRequest)
			return
		}
		mixes = ms
	}

	// Workers=1 in Options: each cell computes single-threaded and the
	// pool parallelizes across cells instead (the request is a whole
	// grid, so the cell fan-out is the efficient axis).
	o := experiment.Options{Seed: req.Seed, Full: req.Full, Reps: req.Reps, Workers: 1, Cache: s.cache}
	var scens []experiment.Scenario
	var reps int
	switch req.Exp {
	case "", "matrix":
		scens, reps = experiment.MatrixGrid(o, req.Instances, mixes)
	case "families":
		if len(req.Mixes) > 0 {
			http.Error(w, `"mixes" applies to the matrix grid; the families grid has a fixed mix`, http.StatusBadRequest)
			return
		}
		scens, reps = experiment.FamiliesGrid(o, req.Instances)
	default:
		http.Error(w, fmt.Sprintf("unknown grid %q (want matrix or families)", req.Exp), http.StatusBadRequest)
		return
	}
	var cells []sweep.Cell
	for _, scen := range scens {
		cells = append(cells, experiment.SweepCells(scen, o, reps)...)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	var stats sweep.Stats
	sweep.Run(cells, sweep.Config{
		Cache:   s.cache,
		Workers: s.workers,
		Stats:   &stats,
		OnCell: func(i int, c sweep.Cell, res core.Result, cached bool) {
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(cellLine{I: i, Label: c.Label, ID: c.Key.ID(), Key: c.Key.String(), Cached: cached, Result: res})
			if flusher != nil {
				flusher.Flush()
			}
		},
	})
	s.accumulate(&stats)
	enc.Encode(doneLine{Done: true, Cells: len(cells), Executed: stats.Executed(), Hits: stats.Hits(), Errors: stats.Errors()})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.cache.GetDoc(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such cell", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *server) handleTables(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("exp")
	run := experiment.Registry()[name]
	if run == nil {
		http.Error(w, fmt.Sprintf("unknown experiment %q; available: %v", name, experiment.Names()), http.StatusNotFound)
		return
	}
	o := experiment.Options{Seed: 1, Cache: s.cache}
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil || seed == 0 {
			http.Error(w, "seed must be an integer in 1..2^64-1", http.StatusBadRequest)
			return
		}
		o.Seed = seed
	}
	if v := q.Get("full"); v != "" {
		full, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "full must be a boolean", http.StatusBadRequest)
			return
		}
		o.Full = full
	}
	if v := q.Get("reps"); v != "" {
		reps, err := strconv.Atoi(v)
		if err != nil || reps < 0 {
			http.Error(w, "reps must be a non-negative integer", http.StatusBadRequest)
			return
		}
		o.Reps = reps
	}
	var stats sweep.Stats
	o.Sweep = &stats
	tables := run(o)
	s.accumulate(&stats)
	// The per-request counters ride in headers so clients (and the
	// warm-cache tests) can observe "served without recomputation";
	// the body is exactly the CLI's -json document.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sweep-Executed", strconv.FormatUint(stats.Executed(), 10))
	w.Header().Set("X-Sweep-Hits", strconv.FormatUint(stats.Hits(), 10))
	if err := experiment.WriteJSON(w, name, o, tables); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// accumulate folds one request's counters into the process-lifetime
// stats (read by tests; cheap observability).
func (s *server) accumulate(st *sweep.Stats) {
	s.stats.Add(st)
}
