package bench

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/radio"
	"authradio/internal/topo"
)

// obsStream folds a world's per-listener observation stream, in order,
// into a hash and a count.
type obsStream struct {
	n int
	h uint64
}

func (s *obsStream) hook(r uint64, dev int, o radio.Obs) {
	w := uint64(o.Frame.Kind) | uint64(o.Frame.PayloadLen)<<8 | uint64(uint32(o.Frame.Src))<<16
	if o.Busy {
		w |= 1 << 62
	}
	if o.Decoded {
		w |= 1 << 63
	}
	s.n++
	s.h = mix(mix(s.h, r<<32^uint64(dev)), mix(w, o.Frame.Payload))
}

// runBroadcastOnce builds sp's world at the given engine worker count
// and runs it, traced or not, recording its observation stream.
func runBroadcastOnce(t *testing.T, sp broadcastSpec, workers int, traced bool) (core.Result, obsStream, *tracer) {
	t.Helper()
	w, _, _, err := sp.build(7)
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.Workers = workers
	var s obsStream
	w.Eng.OnDeliver = s.hook
	if !traced {
		return w.Run(sp.maxRounds), s, nil
	}
	tr := &tracer{}
	in, err := tr.instrument(w.Eng, true)
	if err != nil {
		t.Fatal(err)
	}
	in.install(w.Eng)
	return tr.runWorld(w, sp.maxRounds), s, tr
}

// checkLayerSum asserts the driver-boundary spans partition the traced
// wall time: clock self time, phase A, phase B, stop polls, Summarize
// and the tracer's own replays cover it, none negative. Clock self time
// is the remainder, so this checks the bookkeeping, not that the spans
// cover real work.
func checkLayerSum(t *testing.T, tr *tracer) {
	t.Helper()
	lt := tr.lt
	sum := lt.Clock + lt.PhaseA + lt.PhaseB + lt.Stop + lt.Summarize + lt.Replay
	if lt.Clock < 0 || math.Abs(float64(lt.Wall-sum)) > 0.01*float64(lt.Wall) {
		t.Errorf("layers %+v sum to %v, traced wall is %v", lt, sum, lt.Wall)
	}
}

// TestTracerTransparent: tracing a broadcast leaves its result and every
// listener's observation stream unchanged, on both engine worker counts.
func TestTracerTransparent(t *testing.T) {
	for _, sp := range []broadcastSpec{nwSpec(true), mpSpec(true), onehopSpec(true)} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", sp.name, workers), func(t *testing.T) {
				want, wantObs, _ := runBroadcastOnce(t, sp, workers, false)
				got, gotObs, tr := runBroadcastOnce(t, sp, workers, true)
				if err := errors.Join(checkBroadcast(want), sameResult(want, got, "the untraced run")); err != nil {
					t.Fatal(err)
				}
				if gotObs != wantObs {
					t.Fatalf("observation stream changed under tracing: %d obs hash %x, untraced %d obs hash %x", gotObs.n, gotObs.h, wantObs.n, wantObs.h)
				}
				if tr.listeners != int64(wantObs.n) || tr.ops != 1 || tr.rounds == 0 || tr.wake.n.Load() == 0 {
					t.Errorf("tracer counted %d listeners over %d rounds and %d ops, want %d listeners", tr.listeners, tr.rounds, tr.ops, wantObs.n)
				}
				checkLayerSum(t, tr)
			})
		}
	}
}

// TestTracerTransparentDense: the dense engine keeps its batched block
// sweeps under tracing and observes exactly what it does untraced.
func TestTracerTransparentDense(t *testing.T) {
	const rounds = 12
	run := func(traced bool) (obsStream, *tracer) {
		e := experiment.DenseRoundEngine(4096, false, 3)
		e.Workers = 2
		var s obsStream
		e.OnDeliver = s.hook
		if !traced {
			experiment.DenseRounds(e, rounds)
			return s, nil
		}
		tr := &tracer{}
		in, err := tr.instrument(e, false)
		if err != nil {
			t.Fatal(err)
		}
		in.install(e)
		tr.runUntil(e, nil, 0, e.Round()+rounds)
		if !e.Batched() {
			t.Error("dense engine lost its block devices")
		}
		return s, tr
	}
	want, _ := run(false)
	got, tr := run(true)
	if got != want || want.n == 0 {
		t.Fatalf("observation stream changed under tracing: %d obs hash %x, untraced %d obs hash %x", got.n, got.h, want.n, want.h)
	}
	// No sim.Caller on the dense engine: device calls stay batched and
	// untimed, and every listener is resolved on the cell path.
	if tr.wake.n.Load() != 0 || tr.cellListeners != int64(want.n) || tr.linearListeners != 0 || tr.cells.Load() == 0 || tr.txsetRounds == 0 {
		t.Errorf("dense tracer: %d wake samples, %d cell and %d linear listeners of %d, %d cells, %d rounds indexed",
			tr.wake.n.Load(), tr.cellListeners, tr.linearListeners, want.n, tr.cells.Load(), tr.txsetRounds)
	}
	checkLayerSum(t, tr)
}

// near asserts a sample count scaled to the population lands within 2%
// of the exact count.
func near(t *testing.T, what string, samples, scale, exact int64) {
	t.Helper()
	if exact == 0 || math.Abs(float64(samples*scale)/float64(exact)-1) > 0.02 {
		t.Errorf("%s: %d samples x %d = %d, exact count %d", what, samples, scale, samples*scale, exact)
	}
}

// TestSampledCountsNearExact: the hash sample is unbiased — each kind of
// timed call is sampled at its nominal rate, so busy times extrapolated
// from it rest on a representative sample. (A modulus sample of (id+r)
// would miss whole classes of listeners on the dense workload's (h+r)%8
// transmit rotation.)
func TestSampledCountsNearExact(t *testing.T) {
	sp := nwSpec(true)
	sp.deploy = func(seed uint64) *topo.Deployment { return uniform(1024, seed) }
	_, _, tr := runBroadcastOnce(t, sp, 2, true)
	near(t, "device wakes", tr.wake.n.Load(), sampleMask+1, tr.wakes)
	near(t, "device deliveries", tr.deliver.n.Load(), sampleMask+1, tr.listeners)
	near(t, "linear observations", tr.linear.n.Load(), sampleMask+1, tr.linearListeners)

	e := experiment.DenseRoundEngine(4096, false, 5)
	e.Workers = 2
	dt := &tracer{}
	in, err := dt.instrument(e, false)
	if err != nil {
		t.Fatal(err)
	}
	in.install(e)
	dt.runUntil(e, nil, 0, 301)
	near(t, "cell observations", dt.cell.n.Load(), sampleMask+1, dt.cellListeners)
}
