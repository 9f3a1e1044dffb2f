package bench

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"authradio/internal/bitcodec"
	"authradio/internal/core"
	"authradio/internal/topo"
	"authradio/internal/xrand"

	// OneHopRB is registered only by its own driver package.
	_ "authradio/internal/proto/onehop/driver"
	_ "authradio/internal/protocols"
)

const (
	// engineWorkers is the engine's per-round fan-out, matching the two
	// CPUs the benchmark is sized for.
	engineWorkers = 2
	// paperDensity is the device density of the paper's simulations:
	// 600 devices on a 20×20 map.
	paperDensity = 600.0 / 400
	// minBroadcasts is the fewest broadcasts a run makes; repeats are
	// checked against each other.
	minBroadcasts = 3
)

// Seed lanes: each input drawn from a run's seed has its own stream.
// They label the benchmark's inputs, not the simulator's randomness, so
// internal/xrand's lane registry does not list them and each call site
// carries an rbvet allow.
const (
	laneDeploy = iota + 1
	laneMsg
	laneRequests
)

// broadcastSpec is one single-broadcast workload.
type broadcastSpec struct {
	name      string
	proto     string // registry name
	deploy    func(seed uint64) *topo.Deployment
	msgLen    int
	maxRounds uint64
}

// nwSpec is NeighborWatchRB at 10^4 devices: device Wake logic and the
// cell path of dense rounds dominate.
func nwSpec(toy bool) broadcastSpec {
	n := 16384
	if toy {
		n = 256
	}
	return broadcastSpec{name: "nw-16k", proto: "NeighborWatchRB", msgLen: 4, maxRounds: 1_000_000,
		deploy: func(seed uint64) *topo.Deployment { return uniform(n, seed) }}
}

// mpSpec is MultiPathRB/t1 on a small network: hundreds of thousands of
// rounds of about 8 transmissions each, so the round clock, the linear
// Observe path and the per-round worker fan-out dominate. The message
// has 2 bits: at 4 bits the round count varies from 317k to 494k across
// seeds, at 2 bits from 207k to 226k.
func mpSpec(toy bool) broadcastSpec {
	n := 256
	if toy {
		n = 36
	}
	return broadcastSpec{name: "mp-t1-256", proto: "MultiPathRB/t1", msgLen: 2, maxRounds: 10_000_000,
		deploy: func(seed uint64) *topo.Deployment { return uniform(n, seed) }}
}

// onehopSpec is OneHopRB with every device one hop from the source: one
// transmitter heard by thousands of listeners, then thousands of acks
// converging on one listener, and a Summarize whose connectivity pass
// walks tens of millions of neighbor pairs.
func onehopSpec(toy bool) broadcastSpec {
	n := 8192
	if toy {
		n = 512
	}
	return broadcastSpec{name: "onehop-cluster-8k", proto: "OneHopRB", msgLen: 64, maxRounds: 100_000,
		deploy: func(seed uint64) *topo.Deployment {
			// A 5.5×5.5 square with R=4: the farthest corner is 3.9 from
			// the central source.
			return topo.Uniform(n, 5.5, 4, xrand.Derive(seed, laneDeploy)) //rbvet:allow lanelabel a benchmark input lane
		}}
}

// uniform places n devices uniformly at random at the paper's density,
// with R=4: the deployment of the paper's simulations.
func uniform(n int, seed uint64) *topo.Deployment {
	side := math.Sqrt(float64(n) / paperDensity)
	return topo.Uniform(n, side, 4, xrand.Derive(seed, laneDeploy)) //rbvet:allow lanelabel a benchmark input lane
}

// message draws the broadcast payload from the seed.
func (sp broadcastSpec) message(seed uint64) bitcodec.Message {
	bits := xrand.Derive(seed, laneMsg).Uint64() //rbvet:allow lanelabel a benchmark input lane
	if sp.msgLen < 64 {
		bits &= 1<<sp.msgLen - 1
	}
	return bitcodec.NewMessage(bits, sp.msgLen)
}

// build is the set-up of one broadcast: the deployment with its spatial
// index, then the world.
func (sp broadcastSpec) build(seed uint64) (w *core.World, deploy, build time.Duration, err error) {
	t0 := time.Now()
	d := sp.deploy(seed)
	d.Index()
	t1 := time.Now()
	w, err = core.Build(core.Config{Deploy: d, ProtocolName: sp.proto, Msg: sp.message(seed), SourceID: -1, Seed: seed},
		core.WithWorkers(engineWorkers))
	return w, t1.Sub(t0), time.Since(t1), err
}

//go:embed testdata/reference.json
var referenceJSON []byte

// reference holds each broadcast workload's result for seed 1 at full
// size (regenerate with `rbbench reference`).
func reference() (map[string]core.Result, error) {
	var ref map[string]core.Result
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("bench: reading testdata/reference.json: %w", err)
	}
	return ref, nil
}

// WriteReference runs each broadcast workload once at seed 1 and full
// size and writes the results to path, the file reference() embeds.
func WriteReference(path string) error {
	ref := map[string]core.Result{}
	for _, sp := range []broadcastSpec{nwSpec(false), mpSpec(false), onehopSpec(false)} {
		w, _, _, err := sp.build(1)
		if err != nil {
			return err
		}
		ref[sp.name] = w.Run(sp.maxRounds)
	}
	return writeJSON(path, ref)
}

// checkBroadcast is the per-repeat output check: every honest device
// completed, with the source's message, and the source's component is
// fully delivered.
func checkBroadcast(res core.Result) error {
	var errs []error
	if !res.AllComplete {
		errs = append(errs, fmt.Errorf("%d of %d honest devices completed", res.Complete, res.Honest))
	}
	if res.Correct != res.Honest {
		errs = append(errs, fmt.Errorf("%d of %d honest devices hold the true message", res.Correct, res.Honest))
	}
	if res.SrcComplete != res.SrcHonest {
		errs = append(errs, fmt.Errorf("%d of %d honest devices of the source's component completed", res.SrcComplete, res.SrcHonest))
	}
	return errors.Join(errs...)
}

// sameResult checks that a broadcast reproduced an earlier result.
func sameResult(want, got core.Result, what string) error {
	if want != got {
		return fmt.Errorf("result differs from %s: got %+v, want %+v", what, got, want)
	}
	return nil
}

// runBroadcast repeats one broadcast, each time from a fresh set-up,
// until the time budget is spent. A traced run alternates untraced and
// traced broadcasts, which measures the tracing overhead and checks
// that tracing leaves the result unchanged.
func runBroadcast(sp broadcastSpec, cfg Config, rec *recorder) error {
	var setups, deploys, builds []time.Duration
	setup := func() (*core.World, error) {
		w, d, b, err := sp.build(cfg.Seed)
		setups, deploys, builds = append(setups, d+b), append(deploys, d), append(builds, b)
		return w, err
	}
	if err := repeatSetup(cfg, func() error {
		runtime.GC()
		_, err := setup()
		return err
	}); err != nil {
		return err
	}
	var ref *core.Result
	if cfg.Seed == 1 && !cfg.Toy {
		refs, err := reference()
		if err != nil {
			return err
		}
		r, ok := refs[sp.name]
		if !ok {
			return fmt.Errorf("bench: testdata/reference.json has no %s entry", sp.name)
		}
		ref = &r
	}

	tr := &tracer{}
	var plainOps, tracedOps []time.Duration
	var rounds uint64
	var gc gcWork
	var first core.Result
	start := time.Now()
	deadline := start.Add(cfg.budget())
	for i := 0; ; i++ {
		runtime.GC()
		w, err := setup()
		if err != nil {
			return err
		}
		var res core.Result
		t0 := time.Now()
		if cfg.Trace && i%2 == 1 {
			in, err := tr.instrument(w.Eng, true)
			if err != nil {
				return err
			}
			in.install(w.Eng)
			gc.start()
			t0 = time.Now()
			res = tr.runWorld(w, sp.maxRounds)
			tracedOps = append(tracedOps, time.Since(t0))
			gc.stop()
		} else {
			res = w.Run(sp.maxRounds)
			plainOps = append(plainOps, time.Since(t0))
			rounds += w.Eng.ResolvedRounds()
		}
		if i == 0 {
			first = res
			if !cfg.Trace {
				rec.put(MetricMem, liveHeapMB(), "MB")
			}
			if ref != nil {
				rec.check(sameResult(*ref, res, "testdata/reference.json"))
			}
			rec.check(checkBroadcast(res))
		} else {
			rec.check(errors.Join(checkBroadcast(res), sameResult(first, res, "the first repeat")))
		}
		runtime.KeepAlive(w)
		cfg.logf("%s: broadcast %d: %d rounds, %v elapsed", sp.name, i, res.EndRound, time.Since(start).Round(time.Millisecond))
		// Stop once another broadcast would likely overrun the budget by
		// more than half its own length.
		if i+1 >= minBroadcasts && time.Until(deadline) < time.Since(t0)/2 {
			break
		}
	}

	if !cfg.Trace {
		rec.put(MetricSetup, Median(seconds(setups)), "s")
		rec.putOps(millis(plainOps), minBroadcasts)
		var total time.Duration
		for _, d := range plainOps {
			total += d
		}
		rec.put(MetricThroughput, float64(rounds)/total.Seconds(), "1/s")
		return nil
	}
	rec.put("topo.deploy_s", Median(seconds(deploys)), "s")
	rec.put("core.build_s", Median(seconds(builds)), "s")
	tr.layerMetrics(rec.put)
	rec.putRuntime(gc, tr)
	rec.put("trace.overhead_frac", Median(seconds(tracedOps))/Median(seconds(plainOps))-1, "ratio")
	rec.spans = map[string]any{"workload": sp.name, "seed": cfg.Seed, "broadcasts": tr.opSpans, "slowest_rounds": tr.slowestFirst()}
	return nil
}
