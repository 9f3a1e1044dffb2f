package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/sweep"
)

// cellRun is the timeline of one replayed sweep cell.
type cellRun struct {
	begin      time.Time     // the pool handed the cell to Compute
	start, end time.Time     // the traced computation
	done       time.Time     // the pool reported the cell finished
	build      time.Duration // Scenario.BuildWorld
	plain      time.Duration // the untraced computation, on sampled cells
	plainRes   *core.Result
	err        error
}

// sameAsCold checks a replayed result against the server's.
func sameAsCold(raw json.RawMessage, got core.Result) error {
	if raw == nil {
		return errors.New("replayed cell is missing from the server's cold grid")
	}
	var want core.Result
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("cold result: %w", err)
	}
	return sameResult(want, got, "the server's cold result")
}

// replaySweep recomputes the cold grid in-process through
// experiment.SweepCells and sweep.Run on a fresh cache, with the tracer
// installed in every cell's world, and reports the sweep layer and the
// simulation layers beneath it, per cell. Every traced result must equal
// the server's cold result for the same cell. One cell in eight also
// runs untraced first, which gives the tracing overhead.
func replaySweep(cfg Config, seeds []uint64, cold coldGrid, cacheDir string, rec *recorder) (map[string]any, error) {
	cache, err := sweep.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	var cells []sweep.Cell
	var runs []cellRun // sized once the grid is known, before any Compute runs
	var mu sync.Mutex  // guards total
	total := &tracer{}
	for _, seed := range seeds {
		o := experiment.Options{Seed: seed, Workers: 1}
		scens, reps := experiment.MatrixGrid(o, cold.instances, nil)
		for _, sc := range scens {
			maxRounds := sc.MaxRounds
			if maxRounds == 0 {
				maxRounds = 50_000_000 // experiment's default cap
			}
			for rep, c := range experiment.SweepCells(sc, o, reps) {
				i := len(cells)
				untraced := c.Compute
				c.Compute = func() core.Result {
					r := &runs[i]
					r.begin = time.Now()
					if mix(uint64(i), seed)&7 == 0 {
						res := untraced()
						r.plain, r.plainRes = time.Since(r.begin), &res
					}
					r.start = time.Now()
					w, err := sc.BuildWorld(rep)
					if err != nil {
						r.err = err
						return core.Result{}
					}
					r.build = time.Since(r.start)
					t := &tracer{}
					in, err := t.instrument(w.Eng, true)
					if err != nil {
						r.err = err
						return core.Result{}
					}
					in.install(w.Eng)
					res := t.runWorld(w, maxRounds)
					r.end = time.Now()
					mu.Lock()
					total.merge(t)
					mu.Unlock()
					return res
				}
				cells = append(cells, c)
			}
		}
	}
	runs = make([]cellRun, len(cells))

	var st sweep.Stats
	var gc gcWork
	gc.start()
	t0 := time.Now()
	results := sweep.Run(cells, sweep.Config{Cache: cache, Workers: engineWorkers, Stats: &st,
		OnCell: func(i int, _ sweep.Cell, _ core.Result, _ bool) { runs[i].done = time.Now() }})
	wall := time.Since(t0)
	gc.stop()
	cfg.logf("sweep-serve: traced replay: %d cells in %v", len(cells), wall.Round(time.Millisecond))

	var computeMS, putMS, buildS []float64
	var busy, plain, traced time.Duration
	var cellSpans []map[string]any
	for i, c := range cells {
		r := runs[i]
		err := r.err
		if err == nil {
			err = sameAsCold(cold.results[c.Key.ID()], results[i])
		}
		if err == nil && r.plainRes != nil {
			err = sameResult(*r.plainRes, results[i], "the untraced computation")
			plain += r.plain
			traced += r.end.Sub(r.start)
		}
		rec.check(err)
		if r.err != nil {
			continue
		}
		computeMS = append(computeMS, float64(r.end.Sub(r.start))/1e6)
		putMS = append(putMS, float64(r.done.Sub(r.end))/1e6)
		buildS = append(buildS, r.build.Seconds())
		busy += r.done.Sub(r.begin)
		cellSpans = append(cellSpans, map[string]any{"label": c.Label, "compute_ns": r.end.Sub(r.start), "put_ns": r.done.Sub(r.end)})
	}
	if n := int(st.Executed()); n != len(cells) || st.Errors() != 0 {
		rec.check(fmt.Errorf("replay on a fresh cache executed %d of %d cells with %d write errors", n, len(cells), st.Errors()))
	}

	// Read everything back on one worker: the gap between consecutive
	// completions is then one cache read.
	done := make([]time.Time, len(cells))
	var hit sweep.Stats
	g0 := time.Now()
	again := sweep.Run(cells, sweep.Config{Cache: cache, Workers: 1, Stats: &hit,
		OnCell: func(i int, _ sweep.Cell, _ core.Result, _ bool) { done[i] = time.Now() }})
	var getMS []float64
	prev := g0
	for i := range done {
		getMS = append(getMS, float64(done[i].Sub(prev))/1e6)
		prev = done[i]
	}
	var rereadErr error
	if int(hit.Hits()) != len(cells) {
		rereadErr = fmt.Errorf("re-reading the replay cache hit %d of %d cells", hit.Hits(), len(cells))
	}
	for i := range again {
		if rereadErr == nil && again[i] != results[i] {
			rereadErr = fmt.Errorf("cell %s read back %+v, computed %+v", cells[i].Label, again[i], results[i])
		}
	}
	rec.check(rereadErr)

	k0 := time.Now()
	for _, c := range cells {
		_ = c.Key.String()
		_ = c.Key.ID()
	}
	keyUS := float64(time.Since(k0)) / 1e3 / float64(len(cells))

	rec.put("core.build_s", mean(buildS), "s")
	total.layerMetrics(rec.put)
	rec.putRuntime(gc, total)
	rec.put("sweep.compute_ms_per_cell", mean(computeMS), "ms")
	rec.put("sweep.cache_put_ms_per_cell", mean(putMS), "ms")
	rec.put("sweep.cache_get_ms_per_cell", mean(getMS), "ms")
	rec.put("sweep.key_us_per_cell", keyUS, "us")
	rec.put("sweep.pool_idle_frac", 1-busy.Seconds()/(engineWorkers*wall.Seconds()), "ratio")
	rec.put("trace.overhead_frac", traced.Seconds()/plain.Seconds()-1, "ratio")
	return map[string]any{"workload": "sweep-serve", "seed": cfg.Seed, "cells": cellSpans,
		"broadcasts": total.opSpans, "slowest_rounds": total.slowestFirst()}, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}
