package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"authradio/internal/experiment"
	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/sim"
	"authradio/internal/topo"
	"authradio/internal/xrand"
)

const (
	// denseWarmup is how many rounds the dense set-up runs before timing:
	// the first rounds size the index storage and per-worker scratch.
	denseWarmup = 2
	// memRounds is the round count after which an untraced dense run
	// reads its live heap. A fixed count keeps the reading independent
	// of machine speed; the heap grows with rounds (the wake wheel keeps
	// one fleet-sized bucket per slot it has used, up to 4096 slots).
	memRounds = 256
	// minDenseRounds is the fewest rounds a dense run times.
	minDenseRounds = memRounds
	// denseBlock is how many consecutive rounds a traced dense run times
	// traced or untraced before switching.
	denseBlock = 10
	// checkListeners is how many listeners the dense check compares
	// against the linear reference.
	checkListeners = 1024
)

// observation is one listener's observation in one round.
type observation struct {
	r   uint64
	dev int
	obs radio.Obs
}

// checkObservations compares the observations of up to k listeners,
// chosen by a hash of (device, round), with the medium's linear Observe
// over the round's transmissions, the reference every resolution path
// must reproduce bit for bit. It returns one entry per listener
// compared: nil, or the mismatch.
func checkObservations(m radio.Medium, txs []radio.Tx, obs []observation, pos func(id int) geom.Point, k int) []error {
	obs = slices.Clone(obs)
	slices.SortFunc(obs, func(a, b observation) int { return cmp.Compare(mix(uint64(a.dev), a.r), mix(uint64(b.dev), b.r)) })
	obs = obs[:min(k, len(obs))]
	errs := make([]error, len(obs))
	for i, o := range obs {
		if want := m.Observe(o.r, o.dev, pos(o.dev), txs); want != o.obs {
			errs[i] = fmt.Errorf("round %d device %d observed %+v, linear reference %+v", o.r, o.dev, o.obs, want)
		}
	}
	if len(obs) < k {
		errs = append(errs, fmt.Errorf("only %d listeners observed the checked round, want at least %d", len(obs), k))
	}
	return errs
}

// checkDenseRound runs one round of e with the engine's observation
// hooks on and checks it against the linear reference.
func checkDenseRound(e *sim.Engine) []error {
	var txs []radio.Tx
	var obs []observation
	e.OnRound = func(r uint64, t []radio.Tx) { txs = slices.Clone(t) }
	e.OnDeliver = func(r uint64, dev int, o radio.Obs) { obs = append(obs, observation{r, dev, o}) }
	experiment.DenseRounds(e, 1)
	e.OnRound, e.OnDeliver = nil, nil
	// The dense workload numbers its devices 0..n-1 in Add order.
	pos := func(id int) geom.Point { return e.DeviceAt(id).Pos() }
	return checkObservations(e.Medium, txs, obs, pos, checkListeners)
}

// runDense times single rounds of the dense channel-resolution workload:
// every device acts every round, an eighth of them transmitting, over
// the Friis medium, with the engine's batched block sweeps.
func runDense(cfg Config, rec *recorder) error {
	n := 65536
	if cfg.Toy {
		n = 4096
	}
	var e *sim.Engine
	var setups, builds []time.Duration
	if err := repeatSetup(cfg, func() error {
		e = nil
		runtime.GC()
		t0 := time.Now()
		e = experiment.DenseRoundEngine(n, false, cfg.Seed)
		b := time.Since(t0)
		e.Workers = engineWorkers
		for e.ResolvedRounds() < denseWarmup {
			experiment.DenseRounds(e, 1)
		}
		setups, builds = append(setups, time.Since(t0)), append(builds, b)
		return nil
	}); err != nil {
		return err
	}
	if id := e.DeviceAt(n - 1).ID(); id != n-1 {
		return fmt.Errorf("bench: dense device %d has id %d, want ids in Add order", n-1, id)
	}
	for _, err := range checkDenseRound(e) {
		rec.check(err)
	}

	tr := &tracer{}
	traced, err := tr.instrument(e, false)
	if err != nil {
		return err
	}
	untraced := plain(e)
	var gc gcWork
	var plainOps, tracedOps []time.Duration
	deadline := time.Now().Add(cfg.budget())
	for k := 0; len(plainOps)+len(tracedOps) < minDenseRounds || time.Now().Before(deadline); k++ {
		on := cfg.Trace && k%2 == 1
		if on {
			traced.install(e)
			gc.start()
		} else {
			untraced.install(e)
		}
		for j := 0; j < denseBlock; j++ {
			t0 := time.Now()
			if on {
				tr.runUntil(e, nil, 0, e.Round()+1)
				tr.ops++
				tracedOps = append(tracedOps, time.Since(t0))
			} else {
				experiment.DenseRounds(e, 1)
				plainOps = append(plainOps, time.Since(t0))
				if !cfg.Trace && len(plainOps) == memRounds {
					rec.put(MetricMem, liveHeapMB(), "MB")
				}
			}
			rec.check(nil)
		}
		if on {
			gc.stop()
		}
	}
	runtime.KeepAlive(e)

	if !cfg.Trace {
		rec.put(MetricSetup, Median(seconds(setups)), "s")
		rec.putOps(millis(plainOps), minDenseRounds)
		var total time.Duration
		for _, d := range plainOps {
			total += d
		}
		rec.put(MetricThroughput, float64(n)*float64(len(plainOps))/total.Seconds(), "1/s")
		return nil
	}
	// The engine builder draws its deployment inside; replay that draw
	// to split the set-up between the topology and the engine.
	side := 1.0
	for side*side < float64(n) {
		side++
	}
	var deploys []time.Duration
	for range builds {
		t0 := time.Now()
		topo.Uniform(n, side, 4, xrand.New(cfg.Seed))
		deploys = append(deploys, time.Since(t0))
	}
	rec.put("topo.deploy_s", Median(seconds(deploys)), "s")
	rec.put("core.build_s", Median(seconds(builds))-Median(seconds(deploys)), "s")
	tr.layerMetrics(rec.put)
	rec.putRuntime(gc, tr)
	rec.put("trace.overhead_frac", Median(seconds(tracedOps))/Median(seconds(plainOps))-1, "ratio")
	rec.spans = map[string]any{"workload": "dense-65k", "seed": cfg.Seed, "slowest_rounds": tr.slowestFirst()}
	return nil
}
