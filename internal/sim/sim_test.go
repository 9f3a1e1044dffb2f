package sim

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/xrand"
)

// scripted is a test device driven by a preprogrammed schedule of steps.
type scripted struct {
	id    int
	pos   geom.Point
	plan  map[uint64]Step // round -> step
	obs   map[uint64]radio.Obs
	wakes []uint64
}

func newScripted(id int, pos geom.Point) *scripted {
	return &scripted{id: id, pos: pos, plan: map[uint64]Step{}, obs: map[uint64]radio.Obs{}}
}

func (s *scripted) ID() int         { return s.id }
func (s *scripted) Pos() geom.Point { return s.pos }

func (s *scripted) Wake(r uint64) Step {
	s.wakes = append(s.wakes, r)
	st, ok := s.plan[r]
	if !ok {
		return Step{Action: Sleep, NextWake: NoWake}
	}
	return st
}

func (s *scripted) Deliver(r uint64, obs radio.Obs) { s.obs[r] = obs }

func newTestEngine() *Engine {
	return NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
}

func TestTransmitDelivered(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	b := newScripted(1, geom.Point{X: 1, Y: 0})
	a.plan[5] = Step{Action: Transmit, Frame: radio.Frame{Kind: radio.KindData, Payload: 0xAB, PayloadLen: 8}, NextWake: NoWake}
	b.plan[5] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 5)
	e.Add(b, 5)
	end := e.RunUntil(nil, 0, 1000)
	if end != 6 {
		t.Errorf("end round = %d, want 6", end)
	}
	o, ok := b.obs[5]
	if !ok || !o.Decoded || o.Frame.Payload != 0xAB || o.Frame.Src != 0 {
		t.Fatalf("listener obs = %+v", o)
	}
	if e.TxCount(0) != 1 || e.TxCount(1) != 0 || e.TotalTx() != 1 {
		t.Errorf("tx counts wrong: %d %d", e.TxCount(0), e.TxCount(1))
	}
}

func TestCollisionObserved(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	b := newScripted(1, geom.Point{X: 2, Y: 0})
	c := newScripted(2, geom.Point{X: 1, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	b.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	c.plan[1] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 1)
	e.Add(b, 1)
	e.Add(c, 1)
	e.RunUntil(nil, 0, 100)
	o := c.obs[1]
	if !o.Busy || o.Decoded {
		t.Errorf("middle listener should see collision: %+v", o)
	}
}

func TestTransmitterDoesNotHearItself(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	e.Add(a, 1)
	e.RunUntil(nil, 0, 100)
	if len(a.obs) != 0 {
		t.Errorf("half-duplex transmitter got deliveries: %v", a.obs)
	}
}

func TestSleeperGetsNothing(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	b := newScripted(1, geom.Point{X: 1, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	b.plan[1] = Step{Action: Sleep, NextWake: NoWake}
	e.Add(a, 1)
	e.Add(b, 1)
	e.RunUntil(nil, 0, 100)
	if len(b.obs) != 0 {
		t.Errorf("sleeping device observed: %v", b.obs)
	}
}

func TestCalendarSkipsIdleRounds(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[10] = Step{Action: Listen, NextWake: 1000000}
	a.plan[1000000] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 10)
	end := e.RunUntil(nil, 0, 2000000)
	if end != 1000001 {
		t.Errorf("end = %d", end)
	}
	if e.ResolvedRounds() != 2 {
		t.Errorf("resolved %d rounds, want 2 (idle rounds must be skipped)", e.ResolvedRounds())
	}
}

func TestRunUntilStopsAtPredicate(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	for r := uint64(1); r <= 100; r++ {
		next := r + 1
		if r == 100 {
			next = NoWake
		}
		a.plan[r] = Step{Action: Listen, NextWake: next}
	}
	e.Add(a, 1)
	end := e.RunUntil(func(r uint64) bool { return r >= 50 }, 0, 1000)
	if end < 50 || end > 52 {
		t.Errorf("stopped at %d, want ~50", end)
	}
}

func TestRunUntilMaxRound(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[500] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 500)
	end := e.RunUntil(nil, 0, 100)
	if end != 100 {
		t.Errorf("end = %d, want maxRound 100", end)
	}
	if len(a.wakes) != 0 {
		t.Error("device woke past maxRound")
	}
}

// TestRunUntilBehindClockIsNoop pins that a maxRound at or before
// Round() runs nothing and never moves the clock back: a rewound clock
// would let Add schedule into rounds already run, and the next run
// would replay them.
func TestRunUntilBehindClockIsNoop(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{})
	for r := uint64(1); r < 200; r++ {
		a.plan[r] = Step{Action: Listen, NextWake: r + 1}
	}
	e.Add(a, 1)
	e.RunUntil(nil, 0, 100)
	woke := len(a.wakes)
	if end := e.RunUntil(nil, 0, 5); end != 100 {
		t.Errorf("RunUntil(maxRound 5) at round 100 returned %d, want 100", end)
	}
	if e.Round() != 100 {
		t.Errorf("Round() = %d after RunUntil(maxRound 5), want 100", e.Round())
	}
	if len(a.wakes) != woke {
		t.Errorf("RunUntil(maxRound 5) woke the device in %v", a.wakes[woke:])
	}
	defer func() {
		if recover() == nil {
			t.Error("Add at round 50 after running to 100 did not panic")
		}
	}()
	e.Add(newScripted(1, geom.Point{}), 50)
}

func TestDuplicateIDPanics(t *testing.T) {
	e := newTestEngine()
	e.Add(newScripted(3, geom.Point{}), 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate id did not panic")
		}
	}()
	e.Add(newScripted(3, geom.Point{}), 1)
}

// TestDuplicateSparseIDPanics covers the id map: id 100 is sparse when
// first added, so it goes to the map; ids 0..59 and 150 then grow the
// dense id table past it, and a second Add of id 100 must still panic.
func TestDuplicateSparseIDPanics(t *testing.T) {
	e := newTestEngine()
	e.Add(newScripted(100, geom.Point{}), 1)
	for id := 0; id < 60; id++ {
		e.Add(newScripted(id, geom.Point{}), 1)
	}
	e.Add(newScripted(150, geom.Point{}), 1)
	if e.TxCount(100) != 0 {
		t.Fatalf("TxCount(100) = %d before any round", e.TxCount(100))
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate sparse id 100 did not panic")
		}
	}()
	e.Add(newScripted(100, geom.Point{}), 1)
}

func TestNonFutureWakePanics(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{})
	a.plan[5] = Step{Action: Sleep, NextWake: 5}
	e.Add(a, 5)
	defer func() {
		if recover() == nil {
			t.Error("non-future wake did not panic")
		}
	}()
	e.RunUntil(nil, 0, 100)
}

// TestPastFirstWakePanics pins Add's guard on the strictly increasing
// round order that wake deduplication relies on: a first wake at
// Round() is legal after a run, one before it panics.
func TestPastFirstWakePanics(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{})
	a.plan[100] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 100)
	e.RunUntil(nil, 0, 1000)
	b := newScripted(1, geom.Point{})
	at := e.Round()
	b.plan[at] = Step{Action: Listen, NextWake: NoWake}
	e.Add(b, at)
	e.RunUntil(nil, 0, 1000)
	if !slices.Equal(b.wakes, []uint64{at}) {
		t.Fatalf("device added at Round() = %d woke in %v", at, b.wakes)
	}
	defer func() {
		if recover() == nil {
			t.Error("past first wake did not panic")
		}
	}()
	e.Add(newScripted(2, geom.Point{}), 50)
}

func TestDuplicateScheduleSameRoundWakesOnce(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{})
	a.plan[7] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 7)
	// Manually double-schedule the same device/round.
	e.schedule(0, 7)
	e.RunUntil(nil, 0, 100)
	if len(a.wakes) != 1 {
		t.Errorf("device woke %d times, want 1", len(a.wakes))
	}
}

func TestOnRoundHook(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	e.Add(a, 1)
	var hookRounds []uint64
	var hookTx int
	e.OnRound = func(r uint64, txs []radio.Tx) {
		hookRounds = append(hookRounds, r)
		hookTx += len(txs)
	}
	e.RunUntil(nil, 0, 100)
	if len(hookRounds) != 1 || hookRounds[0] != 1 || hookTx != 1 {
		t.Errorf("hook saw rounds=%v txs=%d", hookRounds, hookTx)
	}
}

// parallelProbe counts concurrent Wake invocations to verify workers are
// actually used, while staying a correct Device.
type parallelProbe struct {
	scripted
	inFlight *int32
	sawPar   *int32
	// hold, when set, keeps this wake in flight until another wake
	// joins it or hold elapses, so a fanned-out round shows its overlap
	// however the scheduler interleaves the workers.
	hold time.Duration
}

func (p *parallelProbe) Wake(r uint64) Step {
	n := atomic.AddInt32(p.inFlight, 1)
	if n > 1 {
		atomic.StoreInt32(p.sawPar, 1)
	}
	for i := 0; i < 100; i++ { // widen the race window
		_ = i
	}
	for deadline := time.Now().Add(p.hold); atomic.LoadInt32(p.sawPar) == 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	atomic.AddInt32(p.inFlight, -1)
	return Step{Action: Listen, NextWake: NoWake}
}

// delivery is one OnDeliver call.
type delivery struct {
	r   uint64
	dev int
	obs radio.Obs
}

// TestParallelExecutionMatchesSequential pins fanned-out rounds to one
// worker: every observation, and the OnDeliver sequence, must equal
// Workers 1's on both phase-B paths. Of 4*minPerWorker+2 devices, one
// in four transmitting, the odd ones wake in round 1, the even ones in
// round 2 and all of them in round 3, whose wake list holds the odd
// devices (scheduled in round 1) before the even ones, so every
// worker's wakes interleave with the others'. Round 3 fans both phases
// out to all of 3 workers, whose owned index ranges 3 does not divide
// evenly, and phase A to 4 at Workers 8. The last case runs 3 workers
// under GOMAXPROCS 1, where the calling goroutine takes every share.
func TestParallelExecutionMatchesSequential(t *testing.T) {
	build := func(linear bool, workers int) ([]*scripted, []delivery) {
		var m radio.Medium = &radio.DiskMedium{R: 3, Metric: geom.LInf}
		if linear {
			m = struct{ radio.Medium }{m} // hides the cell methods
		}
		e := NewEngine(m)
		e.Workers = workers
		var got []delivery
		e.OnDeliver = func(r uint64, dev int, obs radio.Obs) { got = append(got, delivery{r, dev, obs}) }
		devs := make([]*scripted, 4*minPerWorker+2)
		for i := range devs {
			devs[i] = newScripted(i, geom.Point{X: float64(i % 8), Y: float64(i / 8)})
			first := uint64(2 - i%2) // odd devices in round 1, even ones in round 2
			for _, r := range []uint64{first, 3} {
				st := Step{Action: Listen}
				if (uint64(i)+r)%4 == 0 {
					st = Step{Action: Transmit, Frame: radio.Frame{Payload: uint64(i) + r}}
				}
				st.NextWake = NoWake
				if r == first {
					st.NextWake = 3
				}
				devs[i].plan[r] = st
			}
			e.Add(devs[i], first)
		}
		e.RunUntil(nil, 0, 10)
		return devs, got
	}
	for _, linear := range []bool{false, true} {
		seq, seqRx := build(linear, 1)
		for _, c := range []struct{ workers, procs int }{{3, 0}, {8, 0}, {3, 1}} {
			t.Run(fmt.Sprintf("linear=%v/workers=%d/procs=%d", linear, c.workers, c.procs), func(t *testing.T) {
				if c.procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
				}
				par, parRx := build(linear, c.workers)
				for i := range seq {
					if !maps.Equal(seq[i].obs, par[i].obs) {
						t.Fatalf("device %d: sequential obs %+v != parallel obs %+v", i, seq[i].obs, par[i].obs)
					}
				}
				if !slices.Equal(seqRx, parRx) {
					t.Fatal("OnDeliver sequence differs from one worker's")
				}
			})
		}
	}
}

// TestParallelActuallyRunsConcurrently checks that eight workers put two
// wakes in flight together. The first device holds its wake open until
// another joins it (or the hold runs out), so the overlap shows however
// the scheduler interleaves the workers, on a loaded machine or at one P.
func TestParallelActuallyRunsConcurrently(t *testing.T) {
	e := NewEngine(&radio.DiskMedium{R: 1, Metric: geom.LInf})
	e.Workers = 8
	var inFlight, sawPar int32
	for i := 0; i < 8*minPerWorker; i++ { // enough wakes for all eight workers
		p := &parallelProbe{inFlight: &inFlight, sawPar: &sawPar}
		p.scripted = *newScripted(i, geom.Point{X: float64(i), Y: 0})
		if i == 0 {
			p.hold = 10 * time.Second
		}
		e.Add(p, 1)
	}
	e.RunUntil(nil, 0, 10)
	if atomic.LoadInt32(&sawPar) == 0 {
		t.Fatal("8 workers, 8*minPerWorker wakes: never two wakes in flight together")
	}
}

// countingMedium wraps a cell medium and tallies which resolution path
// the engine used: linear Observe calls against BeginCell calls.
type countingMedium struct {
	radio.CellMedium
	linear, cells int32
}

func (c *countingMedium) Observe(round uint64, listenerID int, at geom.Point, txs []radio.Tx) radio.Obs {
	atomic.AddInt32(&c.linear, 1)
	return c.CellMedium.Observe(round, listenerID, at, txs)
}

func (c *countingMedium) BeginCell(cs *radio.CellState, round uint64, set *radio.TxSet, lo, hi geom.Point) {
	atomic.AddInt32(&c.cells, 1)
	c.CellMedium.BeginCell(cs, round, set, lo, hi)
}

func (c *countingMedium) tally() (linear, cells int32) { return c.linear, c.cells }

// denseScripted builds a dense round: n devices on a grid, every third
// transmitting, the rest listening.
func denseScripted(e *Engine, n int) []*scripted {
	devs := make([]*scripted, n)
	side := 1
	for side*side < n {
		side++
	}
	for i := range devs {
		devs[i] = newScripted(i, geom.Point{X: float64(i % side), Y: float64(i / side)})
		if i%3 == 0 {
			devs[i].plan[1] = Step{Action: Transmit, Frame: radio.Frame{Payload: uint64(i)}, NextWake: NoWake}
		} else {
			devs[i].plan[1] = Step{Action: Listen, NextWake: NoWake}
		}
		e.Add(devs[i], 1)
	}
	return devs
}

func TestIndexedResolutionMatchesLinear(t *testing.T) {
	// A dense round resolved through the spatial index must deliver
	// bit-for-bit the same observations as the linear scan, and the
	// engine must actually have taken the indexed path.
	for _, m := range []radio.CellMedium{
		&radio.DiskMedium{R: 2.5, Metric: geom.LInf},
		&radio.DiskMedium{R: 2.5, Metric: geom.L2},
		radio.NewFriisMedium(2.5, 33),
	} {
		build := func(linear bool) ([]*scripted, *countingMedium) {
			cm := &countingMedium{CellMedium: m}
			var em radio.Medium = cm
			if linear {
				// A wrapper that embeds only Medium hides the cell methods.
				em = struct{ radio.Medium }{cm}
			}
			e := NewEngine(em)
			devs := denseScripted(e, 400)
			e.RunUntil(nil, 0, 10)
			return devs, cm
		}
		lin, cmLin := build(true)
		idx, cmIdx := build(false)
		if cmLin.cells != 0 || cmLin.linear == 0 {
			t.Fatalf("plain-Medium wrapper used the cell path (%d cells, %d linear)", cmLin.cells, cmLin.linear)
		}
		if cmIdx.cells == 0 || cmIdx.linear != 0 {
			t.Fatalf("dense round did not use the cell path (%d cells, %d linear)", cmIdx.cells, cmIdx.linear)
		}
		for i := range lin {
			if lin[i].obs[1] != idx[i].obs[1] {
				t.Fatalf("device %d: linear obs %+v != indexed obs %+v", i, lin[i].obs[1], idx[i].obs[1])
			}
		}
	}
}

func TestSparseRoundSkipsIndex(t *testing.T) {
	// Rounds below the density threshold resolve linearly: building the
	// index would cost more than it saves.
	cm := &countingMedium{CellMedium: &radio.DiskMedium{R: 2, Metric: geom.LInf}}
	e := NewEngine(cm)
	denseScripted(e, minIndexedTxs) // ceil(n/3) transmitters < minIndexedTxs
	e.RunUntil(nil, 0, 10)
	if cm.cells != 0 || cm.linear == 0 {
		t.Fatalf("sparse round used the cell path (%d cells, %d linear)", cm.cells, cm.linear)
	}
}

func TestIndexedResolutionAcrossWorkers(t *testing.T) {
	// The shared per-round TxSet must be safe under phase-B fan-out:
	// worker counts must not change observations.
	build := func(workers int) []*scripted {
		e := NewEngine(radio.NewFriisMedium(2.5, 5))
		e.Workers = workers
		devs := denseScripted(e, 3*minPerWorker) // 2*minPerWorker listeners
		e.RunUntil(nil, 0, 10)
		return devs
	}
	seq := build(1)
	par := build(8)
	for i := range seq {
		if seq[i].obs[1] != par[i].obs[1] {
			t.Fatalf("device %d: sequential obs %+v != parallel obs %+v", i, seq[i].obs[1], par[i].obs[1])
		}
	}
}

func TestEmptyCalendarTerminates(t *testing.T) {
	e := newTestEngine()
	end := e.RunUntil(nil, 0, 1000)
	if end != 0 {
		t.Errorf("empty engine ran to %d", end)
	}
}

func BenchmarkEngineRound(b *testing.B) {
	e := NewEngine(&radio.DiskMedium{R: 4, Metric: geom.L2})
	n := 200
	devs := make([]*scripted, n)
	for i := range devs {
		devs[i] = newScripted(i, geom.Point{X: float64(i % 20), Y: float64(i / 20)})
		e.Add(devs[i], 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := uint64(i + 1)
		for _, d := range devs {
			if d.id%7 == 0 {
				d.plan[r] = Step{Action: Transmit, NextWake: r + 1}
			} else {
				d.plan[r] = Step{Action: Listen, NextWake: r + 1}
			}
		}
		e.RunUntil(func(uint64) bool { return true }, 0, uint64(i+2))
	}
}

// chaosDevice drives a pseudo-random but fully deterministic workload:
// every wake hashes (seed, id, round) into an action and a next wake
// that mixes near jumps, mid jumps, far jumps beyond the wheel window
// (forcing spill traffic), and occasional NoWake. It records its wake
// rounds and observations for exact cross-engine comparison.
type chaosDevice struct {
	id    int
	pos   geom.Point
	seed  uint64
	wakes []uint64
	obs   []radio.Obs
}

func (d *chaosDevice) ID() int         { return d.id }
func (d *chaosDevice) Pos() geom.Point { return d.pos }

func (d *chaosDevice) Wake(r uint64) Step {
	d.wakes = append(d.wakes, r)
	h := xrand.Hash64(d.seed, uint64(d.id), r)
	var st Step
	switch h % 4 {
	case 0:
		st.Action = Transmit
		st.Frame = radio.Frame{Kind: radio.KindData, Payload: h}
	case 1, 2:
		st.Action = Listen
	default:
		st.Action = Sleep
	}
	j := (h >> 8) % 16
	switch {
	case j == 0:
		st.NextWake = NoWake
	case j == 1: // into level 1: exercises coarse-bucket scatter
		st.NextWake = r + wheelSize + 1 + (h>>16)%(2*wheelSize)
	case j == 2: // exactly at the coarse-bucket boundary
		st.NextWake = r + wheelSize
	case j == 3: // past both wheel levels: exercises the overflow
		st.NextWake = r + wheelSpan + (h>>16)%(3*wheelSize)
	case j <= 5: // mid-range jump
		st.NextWake = r + 64 + (h>>16)%1024
	default: // near jump
		st.NextWake = r + 1 + (h>>16)%8
	}
	return st
}

func (d *chaosDevice) Deliver(r uint64, obs radio.Obs) { d.obs = append(d.obs, obs) }

// chaosFanout is the smallest chaos fleet whose parallel runs fan out:
// its first five rounds each wake a fifth of the fleet, 2*minPerWorker
// devices, enough for two workers. About half of those wakes listen,
// so phase B fans out too from twice this fleet.
const chaosFanout = 5 * 2 * minPerWorker

// buildChaos populates an engine with the chaos workload in ascending
// id order (see addChaos).
func buildChaos(e *Engine, n int, seed uint64) []*chaosDevice {
	return addChaos(e.Add, scheduleID(e), n, seed, nil)
}

// scheduleID is Engine.schedule keyed by device id instead of compact
// index.
func scheduleID(e *Engine) func(id int, r uint64) {
	return func(id int, r uint64) {
		ix, _ := e.lookupIx(id)
		e.schedule(int32(ix), r)
	}
}

// addChaos adds n chaos devices through add, in the given id order (nil
// for ascending), on a unit-density square (some of them far outliers,
// so listener cells clamp at the spatial-hash border), plus duplicate
// same-round and far-future manual schedules through schedule, which
// takes a device id. Positions, first wakes and schedules depend on ids
// only, never on the order. It returns the devices indexed by id.
func addChaos(add func(Device, uint64), schedule func(id int, r uint64), n int, seed uint64, order []int) []*chaosDevice {
	side := 1
	for side*side < n {
		side++
	}
	devs := make([]*chaosDevice, n)
	for i := range devs {
		p := geom.Point{X: float64(i % side), Y: float64(i / side)}
		switch i % 97 {
		case 13:
			p = geom.Point{X: -50, Y: p.Y} // outside the tx bounding box
		case 51:
			p = geom.Point{X: p.X + 500, Y: p.Y + 500}
		}
		devs[i] = &chaosDevice{id: i, pos: p, seed: seed}
	}
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	for _, id := range order {
		add(devs[id], uint64(1+id%5))
	}
	// Duplicate wake-ups: same round twice, and a far-future duplicate
	// that lands in the spill twice.
	schedule(0, 3)
	schedule(0, 3)
	schedule(1, wheelSize*2+17)
	schedule(1, wheelSize*2+17)
	return devs
}

// chaosEqual fails the test unless every device woke in the same rounds
// with the same observations in both runs.
func chaosEqual(t *testing.T, label string, a, b []*chaosDevice) {
	t.Helper()
	for i := range a {
		if len(a[i].wakes) != len(b[i].wakes) {
			t.Fatalf("%s: device %d woke %d vs %d times", label, i, len(a[i].wakes), len(b[i].wakes))
		}
		for k := range a[i].wakes {
			if a[i].wakes[k] != b[i].wakes[k] {
				t.Fatalf("%s: device %d wake %d: round %d vs %d", label, i, k, a[i].wakes[k], b[i].wakes[k])
			}
		}
		if len(a[i].obs) != len(b[i].obs) {
			t.Fatalf("%s: device %d observed %d vs %d times", label, i, len(a[i].obs), len(b[i].obs))
		}
		for k := range a[i].obs {
			if a[i].obs[k] != b[i].obs[k] {
				t.Fatalf("%s: device %d obs %d: %+v vs %+v", label, i, k, a[i].obs[k], b[i].obs[k])
			}
		}
	}
}

// TestWheelMatchesHeapCalendar is the wake-wheel equivalence property:
// under a workload mixing near wakes, window-boundary wakes, far-future
// spills, duplicate same-round schedules and NoWake, the wheel must
// schedule and fire exactly like the legacy engine's plain map
// calendar — same wake rounds, same observations, same resolved-round
// count and end round.
func TestWheelMatchesHeapCalendar(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		le, legacyDevs := runLegacyChaos(&radio.DiskMedium{R: 2, Metric: geom.LInf}, 150, seed, 30_000)
		e := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
		wheelDevs := buildChaos(e, 150, seed)
		e.RunUntil(nil, 0, 30_000)
		sameClock(t, "wheel vs legacy", le, e)
		chaosEqual(t, "wheel vs legacy", legacyDevs, wheelDevs)
	}
}

// TestWheelMatchesHeapChunkedRuns re-runs the equivalence with the
// wheel engine driven through many small RunUntil windows, exercising
// the peek-without-pop path at every maxRound boundary.
func TestWheelMatchesHeapChunkedRuns(t *testing.T) {
	le, legacyDevs := runLegacyChaos(&radio.DiskMedium{R: 2, Metric: geom.LInf}, 150, 7, 30_000)

	wheelEng := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
	wheelDevs := buildChaos(wheelEng, 150, 7)
	for max := uint64(777); wheelEng.Round() < 30_000; max += 777 {
		if max > 30_000 {
			max = 30_000
		}
		wheelEng.RunUntil(nil, 0, max)
	}
	sameClock(t, "chunked wheel vs legacy", le, wheelEng)
	chaosEqual(t, "chunked wheel vs legacy", legacyDevs, wheelDevs)
}

// TestWheelExactSpillBoundaries pins the wheel's window arithmetic with
// a scripted device waking exactly at, just past, and far past both
// level edges (coarse-bucket boundary and the full two-level horizon).
func TestWheelExactSpillBoundaries(t *testing.T) {
	rounds := []uint64{
		1, 2, wheelSize - 1, wheelSize, wheelSize + 1, 2*wheelSize + 3, 5*wheelSize + 7,
		wheelSpan - 1, wheelSpan, wheelSpan + 1, 2*wheelSpan + wheelSize + 5,
	}
	e := newTestEngine()
	a := newScripted(0, geom.Point{})
	for i, r := range rounds {
		next := NoWake
		if i+1 < len(rounds) {
			next = rounds[i+1]
		}
		a.plan[r] = Step{Action: Listen, NextWake: next}
	}
	e.Add(a, rounds[0])
	e.RunUntil(nil, 0, NoWake-1)
	if !slices.Equal(a.wakes, rounds) {
		t.Fatalf("wheel fired %v, want %v", a.wakes, rounds)
	}
}

// deepStrideDevice wakes every stride rounds (NoWake after its wake budget
// runs out, if one is set), recording its wake rounds.
type deepStrideDevice struct {
	id     int
	stride uint64
	budget int
	wakes  []uint64
}

func (d *deepStrideDevice) ID() int         { return d.id }
func (d *deepStrideDevice) Pos() geom.Point { return geom.Point{X: float64(d.id), Y: 0} }
func (d *deepStrideDevice) Wake(r uint64) Step {
	d.wakes = append(d.wakes, r)
	if d.budget > 0 && len(d.wakes) >= d.budget {
		return Step{Action: Sleep, NextWake: NoWake}
	}
	return Step{Action: Listen, NextWake: r + d.stride}
}
func (d *deepStrideDevice) Deliver(uint64, radio.Obs) {}

// TestWheelMatchesHeapDeepHorizons drives wake cycles far past both
// wheel levels — strides around the coarse-bucket boundary, the last
// level-1 bucket, the full two-level horizon, and deep overflow — with
// duplicate overflow schedules, a NoWake dropout, and a mid-run Add
// behind the wheel base (the rebase path), pinned identical to the
// legacy engine's plain map calendar.
func TestWheelMatchesHeapDeepHorizons(t *testing.T) {
	strides := []uint64{
		wheelSize - 1, wheelSize, wheelSize + 1, // level-0/level-1 boundary
		3*wheelSize + 5,                         // mid level-1
		wheelSpan - wheelSize,                   // last level-1 bucket
		wheelSpan - 1, wheelSpan, wheelSpan + 1, // level-1/overflow boundary
		2*wheelSpan + 12345, // deep overflow: migrates twice
	}
	const maxRound = 5 * wheelSpan / 2
	// run drives one engine through add, schedule (by index) and run
	// (returning the end round), so the wheel and the legacy reference
	// see the identical call sequence.
	run := func(add func(Device, uint64), schedule func(ix int, r uint64), run func(maxRound uint64) uint64) []*deepStrideDevice {
		devs := make([]*deepStrideDevice, 0, len(strides)+2)
		for i, s := range strides {
			d := &deepStrideDevice{id: i, stride: s}
			devs = append(devs, d)
			add(d, uint64(i)+1)
		}
		// A device that stops waking after five deep cycles.
		dn := &deepStrideDevice{id: len(strides), stride: wheelSpan + 7, budget: 5}
		devs = append(devs, dn)
		add(dn, 2)
		// Duplicate wake-ups deep in the overflow and at the horizon edge.
		schedule(0, wheelSpan+5)
		schedule(0, wheelSpan+5)
		schedule(1, wheelSpan-1)
		schedule(1, 2*wheelSpan+3)
		mid := run(maxRound / 2)
		// Adding behind the advanced wheel base forces a rebase.
		late := &deepStrideDevice{id: len(strides) + 1, stride: wheelSpan - 3}
		devs = append(devs, late)
		add(late, mid+1)
		run(maxRound)
		return devs
	}
	le := &legacyEngine{medium: &radio.DiskMedium{R: 2, Metric: geom.LInf}}
	legacyDevs := run(le.add, le.schedule, le.run)
	e := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
	wheelDevs := run(e.Add, func(ix int, r uint64) { e.schedule(int32(ix), r) },
		func(maxRound uint64) uint64 { return e.RunUntil(nil, 0, maxRound) })
	sameClock(t, "deep horizons", le, e)
	for i := range legacyDevs {
		if !slices.Equal(legacyDevs[i].wakes, wheelDevs[i].wakes) {
			t.Fatalf("device %d: legacy wakes %v, wheel wakes %v", i, legacyDevs[i].wakes, wheelDevs[i].wakes)
		}
	}
	if len(legacyDevs[0].wakes) == 0 || legacyDevs[len(strides)].wakes[len(legacyDevs[len(strides)].wakes)-1] >= maxRound {
		t.Fatal("deep workload did not exercise the horizon as intended")
	}
}

// TestCellShardedMatchesFlat is the phase-B ordering property: cell-
// ordered, shard-stolen delivery must produce exactly the observations
// of the linear scan's flat wake-order delivery, across worker counts,
// for both built-in media (including lossy Friis, whose per-candidate
// fade hash would expose any listener/candidate mixup).
func TestCellShardedMatchesFlat(t *testing.T) {
	media := map[string]func() radio.Medium{
		"disk-linf": func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} },
		"disk-l2":   func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.L2} },
		"friis": func() radio.Medium {
			m := radio.NewFriisMedium(2.5, 33)
			m.LossProb = 0.3
			return m
		},
	}
	for name, mk := range media {
		var ref []*chaosDevice
		for _, cfg := range []struct {
			label   string
			linear  bool
			workers int
		}{
			{label: "cells"},
			{label: "linear", linear: true},
			{label: "cells-parallel", workers: 4},
		} {
			m := mk()
			if cfg.linear {
				m = struct{ radio.Medium }{m}
			}
			e := NewEngine(m)
			e.Workers = cfg.workers
			devs := buildChaos(e, 2*chaosFanout, 21)
			e.RunUntil(nil, 0, 500)
			if ref == nil {
				ref = devs
				continue
			}
			chaosEqual(t, name+": "+cfg.label+" vs cells", ref, devs)
		}
	}
}

// TestAddOrderInvariance is the Add-order metamorphic property: with
// ids, positions, first wakes and the manual duplicate schedules fixed,
// adding the chaos devices in reversed or seeded-shuffled order must
// leave every device's wake rounds and observations, its transmission
// count, and the resolved-round count bit-identical to the in-order
// run. The compact index Add assigns must never leak into results. The
// full shuffle also sends ids that are sparse when added to the id map
// and then grows the dense id table past them.
func TestAddOrderInvariance(t *testing.T) {
	const (
		n        = chaosFanout
		seed     = 21
		maxRound = 10_000
	)
	reversed := make([]int, n)
	shuffled := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
		shuffled[i] = i
	}
	rng := xrand.New(99)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	media := []struct {
		name string
		mk   func() radio.Medium
	}{
		{"disk-linf", func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} }},
		{"friis-lossy", func() radio.Medium {
			m := radio.NewFriisMedium(2.5, 33)
			m.LossProb = 0.3
			return m
		}},
	}
	for _, med := range media {
		for _, workers := range []int{0, 4} {
			run := func(order []int) (*Engine, []*chaosDevice) {
				e := NewEngine(med.mk())
				e.Workers = workers
				devs := addChaos(e.Add, scheduleID(e), n, seed, order)
				e.RunUntil(nil, 0, maxRound)
				return e, devs
			}
			ref, refDevs := run(nil)
			for _, perm := range []struct {
				label string
				order []int
			}{{"reversed", reversed}, {"shuffled", shuffled}} {
				label := fmt.Sprintf("%s workers=%d %s vs in-order", med.name, workers, perm.label)
				e, devs := run(perm.order)
				if e.ResolvedRounds() != ref.ResolvedRounds() {
					t.Fatalf("%s: resolved %d rounds vs %d", label, e.ResolvedRounds(), ref.ResolvedRounds())
				}
				for id := 0; id < n; id++ {
					if e.TxCount(id) != ref.TxCount(id) {
						t.Fatalf("%s: device %d sent %d vs %d frames", label, id, e.TxCount(id), ref.TxCount(id))
					}
				}
				chaosEqual(t, label, refDevs, devs)
			}
		}
	}
}

// observeOnlyMedium embeds only the radio.Medium interface, so it is
// not a radio.CellMedium, and tallies its Observe override.
type observeOnlyMedium struct {
	radio.Medium
	linear int32
}

func (c *observeOnlyMedium) Observe(round uint64, listenerID int, at geom.Point, txs []radio.Tx) radio.Obs {
	atomic.AddInt32(&c.linear, 1)
	return c.Medium.Observe(round, listenerID, at, txs)
}

func (c *observeOnlyMedium) tally() (linear, cells int32) { return c.linear, 0 }

// promotedCellMedium embeds the concrete Friis medium, so the cell
// methods are promoted and it is a radio.CellMedium whatever it
// overrides. It tallies its Observe override and BeginCell calls.
type promotedCellMedium struct {
	*radio.FriisMedium
	linear, cells int32
}

func (c *promotedCellMedium) Observe(round uint64, listenerID int, at geom.Point, txs []radio.Tx) radio.Obs {
	atomic.AddInt32(&c.linear, 1)
	return c.FriisMedium.Observe(round, listenerID, at, txs)
}

func (c *promotedCellMedium) BeginCell(cs *radio.CellState, round uint64, set *radio.TxSet, lo, hi geom.Point) {
	atomic.AddInt32(&c.cells, 1)
	c.FriisMedium.BeginCell(cs, round, set, lo, hi)
}

func (c *promotedCellMedium) tally() (linear, cells int32) { return c.linear, c.cells }

// wrapperMedium is a test wrapper that tallies which resolution path
// the engine used: linear Observe calls against BeginCell calls.
type wrapperMedium interface {
	radio.Medium
	tally() (linear, cells int32)
}

// checkWrapperPath runs a dense round over m and checks the path it
// took: the cell path (BeginCell, never Observe) when cellPath is set,
// else the linear scan, whose Observe sees every listener.
func checkWrapperPath(t *testing.T, m wrapperMedium, cellPath bool) {
	t.Helper()
	e := NewEngine(m)
	devs := denseScripted(e, 400)
	e.RunUntil(nil, 0, 10)
	listeners := 0
	for _, d := range devs {
		listeners += len(d.obs)
	}
	linear, cells := m.tally()
	if listeners == 0 {
		t.Fatalf("%T: dense round had no listeners", m)
	}
	if cellPath && (cells == 0 || linear != 0) {
		t.Fatalf("%T: want the cell path: %d cells, Observe saw %d listeners", m, cells, linear)
	}
	if !cellPath && (cells != 0 || int(linear) != listeners) {
		t.Fatalf("%T: want the linear path: %d cells, Observe saw %d of %d listeners", m, cells, linear, listeners)
	}
}

// TestDenseRoundUsesCandidatePath pins which resolution path a dense
// round takes over a wrapper by the interface it embeds. One embedding
// radio.CellMedium takes the cell path (once called the candidate
// path). One embedding only radio.Medium resolves linearly, so its
// Observe sees every listener.
func TestDenseRoundUsesCandidatePath(t *testing.T) {
	checkWrapperPath(t, &countingMedium{CellMedium: radio.NewFriisMedium(2.5, 5)}, true)
	checkWrapperPath(t, &observeOnlyMedium{Medium: radio.NewFriisMedium(2.5, 5)}, false)
}

// TestDenseRoundUsesCellPath pins that a wrapper embedding
// *radio.FriisMedium takes the cell path by method promotion, which
// bypasses its Observe override: the footgun that radio.CellMedium
// documents.
func TestDenseRoundUsesCellPath(t *testing.T) {
	checkWrapperPath(t, &promotedCellMedium{FriisMedium: radio.NewFriisMedium(2.5, 5)}, true)
}

// blockFleet is a flat-array test fleet: the block sweeps and the
// per-device methods run the same step/deliver logic, and every
// delivered observation is logged per device for comparison. wakes
// counts steps taken on either path. A device's handle is its id plus
// fleetHandleBase, so a handle routed to the wrong handler, or a
// compact index passed as a handle, indexes out of range.
type blockFleet struct {
	pos   []geom.Point
	log   [][]radio.Obs
	wakes atomic.Int64
}

const fleetHandleBase = 1 << 20

func (g *blockFleet) step(id int32, r uint64) Step {
	g.wakes.Add(1)
	switch (uint64(id)*2654435761 + r) % 7 {
	case 0, 1:
		return Step{Action: Transmit, Frame: radio.Frame{Kind: radio.KindData, Src: int(id), Payload: r}, NextWake: r + 1 + (uint64(id)+r)%4}
	case 2:
		return Step{Action: Sleep, NextWake: r + 3}
	default:
		return Step{Action: Listen, NextWake: r + 1 + uint64(id)%3}
	}
}

func (g *blockFleet) WakeBlock(r uint64, handles []uint32, steps []Step) {
	for k, h := range handles {
		steps[k] = g.step(int32(h-fleetHandleBase), r)
	}
}

func (g *blockFleet) DeliverBlock(r uint64, handles []uint32, obs []radio.Obs) {
	for k, h := range handles {
		id := h - fleetHandleBase
		g.log[id] = append(g.log[id], obs[k])
	}
}

// blockFleetDev opts into the batched sweeps; plainFleetDev is the same
// device without Block, keeping the engine on the per-device methods.
type blockFleetDev struct {
	g  *blockFleet
	id int32
}

func (d *blockFleetDev) ID() int                         { return int(d.id) }
func (d *blockFleetDev) Pos() geom.Point                 { return d.g.pos[d.id] }
func (d *blockFleetDev) Wake(r uint64) Step              { return d.g.step(d.id, r) }
func (d *blockFleetDev) Deliver(r uint64, obs radio.Obs) { d.g.log[d.id] = append(d.g.log[d.id], obs) }
func (d *blockFleetDev) Block() (BlockHandler, uint32) {
	return d.g, uint32(d.id) + fleetHandleBase
}

type plainFleetDev struct{ blockFleetDev }

func (d *plainFleetDev) Block() {} // not a BlockDevice: wrong signature shadows the promotion

// TestBlockDeviceMatchesPerDevice pins the batched phase-A/phase-B
// sweeps bit-for-bit to the per-device Wake/Deliver path, sequentially
// and with workers (the -race run covers the disjoint-handle contract),
// for an all-block fleet and for one mixing block and plain devices
// (runs of both handlers in every sweep). Observations and the
// OnDeliver sequence must both match. The routed runs put the fleet
// behind a transport's Caller, which must see every wake and every
// delivery: no block sweep may slip past a transport.
func TestBlockDeviceMatchesPerDevice(t *testing.T) {
	// Every device wakes in round 1, so the workers runs fan it out: to
	// 2 workers, and to 3 over owned ranges 3 does not divide evenly.
	const n, rounds = 3*minPerWorker + 1, 200
	// run builds the fleet with every blockEvery-th device a
	// BlockDevice (none when blockEvery is 0).
	run := func(blockEvery int, routed bool, workers int) (*blockFleet, *countingCaller, []delivery) {
		m := radio.NewFriisMedium(2.5, 11)
		m.LossProb = 0.2
		e := NewEngine(m)
		e.Workers = workers
		var rx []delivery
		e.OnDeliver = func(r uint64, dev int, obs radio.Obs) { rx = append(rx, delivery{r, dev, obs}) }
		side := 1
		for side*side < n {
			side++
		}
		g := &blockFleet{pos: make([]geom.Point, n), log: make([][]radio.Obs, n)}
		for i := range g.pos {
			g.pos[i] = geom.Point{X: float64(i % side), Y: float64(i / side)}
		}
		ds := make([]plainFleetDev, n)
		for i := range ds {
			ds[i] = plainFleetDev{blockFleetDev{g: g, id: int32(i)}}
			if blockEvery > 0 && i%blockEvery == 0 {
				e.Add(&ds[i].blockFleetDev, 1)
			} else {
				e.Add(&ds[i], 1)
			}
		}
		if e.Batched() != (blockEvery > 0) {
			t.Fatalf("blockEvery=%d: engine batched = %v", blockEvery, e.Batched())
		}
		var cc *countingCaller
		if routed {
			if err := e.UseTransport(callerTransport{cc: &cc}); err != nil {
				t.Fatal(err)
			}
		}
		e.RunUntil(nil, 0, rounds)
		return g, cc, rx
	}
	ref, _, refRx := run(0, false, 0)
	check := func(label string, blockEvery int, routed bool, workers int) {
		got, cc, rx := run(blockEvery, routed, workers)
		obs := 0
		for i := range ref.log {
			if !slices.Equal(ref.log[i], got.log[i]) {
				t.Fatalf("%s: device %d observations diverge from the per-device path", label, i)
			}
			obs += len(got.log[i])
		}
		if !slices.Equal(refRx, rx) {
			t.Fatalf("%s: OnDeliver sequence diverges from the per-device path", label)
		}
		if routed && (cc.wakes.Load() != got.wakes.Load() || cc.delivers.Load() != int64(obs)) {
			t.Fatalf("%s: caller saw %d of %d wakes and %d of %d deliveries",
				label, cc.wakes.Load(), got.wakes.Load(), cc.delivers.Load(), obs)
		}
	}
	for _, blockEvery := range []int{1, 3} {
		for _, routed := range []bool{false, true} {
			for _, workers := range []int{0, 2, 3} {
				check(fmt.Sprintf("blockEvery=%d routed=%v workers=%d", blockEvery, routed, workers), blockEvery, routed, workers)
			}
		}
	}
	// Under GOMAXPROCS 1 the calling goroutine takes every share.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check("blockEvery=3 routed=false workers=3 GOMAXPROCS=1", 3, false, 3)
}

// strideDevice sleeps in a fixed stride, exercising pure scheduler cost
// (no transmissions, no listeners).
type strideDevice struct {
	id     int
	stride uint64
}

func (d *strideDevice) ID() int                   { return d.id }
func (d *strideDevice) Pos() geom.Point           { return geom.Point{} }
func (d *strideDevice) Wake(r uint64) Step        { return Step{Action: Sleep, NextWake: r + d.stride} }
func (d *strideDevice) Deliver(uint64, radio.Obs) {}

// BenchmarkSparseCalendarWheel measures scheduler overhead on a sparse
// calendar: many scheduled rounds, few devices each. Strides mix
// near-future rounds with far-future ones beyond the wheel window.
func BenchmarkSparseCalendarWheel(b *testing.B) {
	e := NewEngine(&radio.DiskMedium{R: 1, Metric: geom.LInf})
	strides := []uint64{7, 13, 40, 97, 256, 601, 1023, 2049, wheelSize + 13, 2*wheelSize + 1}
	for i := 0; i < 32; i++ {
		e.Add(&strideDevice{id: i, stride: strides[i%len(strides)]}, uint64(1+i))
	}
	b.ResetTimer()
	e.RunUntil(func(uint64) bool { return e.ResolvedRounds() >= uint64(b.N) }, 0, NoWake-1)
}
