// Package sweep turns experiment grids into addressable work units.
//
// A sweep is a grid of (protocol instance × adversary mix × deployment
// × repetition) cells. Each cell's identity is a canonical CellKey —
// every knob that determines the cell's result, rendered into one
// stable string and content-addressed by its SHA-256 hash — and each
// cell's result is a pure function of its key (the engine's
// determinism guarantees: fixed seed, no wall clock, worker counts
// never change results). That purity is what makes cells cacheable:
// a result computed yesterday, by another process, or on another
// machine is byte-for-byte the result this process would compute, so
// a persistent Cache can serve it without rerunning the simulation,
// and a killed sweep restarted against the same cache recomputes only
// the missing cells.
//
// The package deliberately knows nothing about scenarios or tables:
// internal/experiment renders its Scenario values into CellKeys and
// compute closures (experiment.SweepCells), and this package supplies
// the three orthogonal pieces — the key grammar (key.go), the on-disk
// store (cache.go), and the work-stealing executor (pool.go). cmd/rbexp
// fronts the same machinery with an HTTP API (`rbexp serve`).
package sweep

// Schema versions the cell contract: the key grammar, the cache entry
// layout, and — by convention — the simulation semantics behind them.
// A cached entry whose stamp differs from the running binary's Schema
// is treated as a cache miss, never served. Bump it whenever a change
// legitimately moves experiment results (the same discipline as
// regenerating the goldens with `make golden`): stale caches from
// older code then invalidate themselves instead of serving bytes the
// current code would not produce.
const Schema = 3
