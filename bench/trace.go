package bench

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"authradio/internal/core"
	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/sim"
)

// The tracer times the engine's layers from outside, through the seams
// the engine already exports: a sim.RoundDriver decorator around the
// standard resolver (phase A, phase B and the round's counts), a
// forwarding radio.CellMedium (channel resolution, linear and per
// cell), a sim.Caller (device logic) and a wrapped stop poll. Nothing
// inside internal/ changes, and a traced run resolves every round
// exactly as an untraced one does.
//
// Spans at the driver boundary are timed on every call. Calls inside a
// round are timed on a sample chosen by a hash of (device id, round): a
// modulus would line up with workloads whose devices act on an (id+r)
// rotation and sample none of one kind. Every count is exact: the
// driver boundary sees wakes, transmissions and listeners, and the
// medium sees every cell, so it also tells which rounds took the cell
// path. A layer's busy time is its sampled mean call time times its
// exact call count, summed over workers.

const (
	// sampleMask selects one device or listener call in 64 for timing:
	// reading the clock twice costs about as much as a typical call.
	sampleMask = 63
	// cellMask selects one cell in 16: cells are far fewer than
	// listeners, so their timing sample needs a higher rate.
	cellMask = 15
	// replayMask selects one listener in 256 (a subset of the timed
	// ones) for the candidate replay, which costs far more than a call.
	replayMask = 255
	// slowRounds is how many of the slowest rounds a traced run keeps in
	// full; every other round is folded into the layer totals.
	slowRounds = 100
)

// mix hashes two words into a well-spread 64-bit value (a splitmix64
// finalizer over a weighted sum).
func mix(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b*0xC2B2AE3D27D4EB4F + 0x165667B19E3779F9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func sampled(id int, r uint64) bool { return mix(uint64(id), r)&sampleMask == 0 }

// timerCost is the calibrated cost of timing an empty region; every
// sampled duration has it subtracted.
var timerCost = sync.OnceValue(func() time.Duration {
	const n = 4000
	xs := make([]float64, 0, 7)
	for k := 0; k < 7; k++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		xs = append(xs, float64(sum)/n)
	}
	return time.Duration(Median(xs))
})

// busy accumulates sampled call durations from concurrent workers.
type busy struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (b *busy) add(d time.Duration) {
	d -= timerCost()
	b.n.Add(1)
	b.ns.Add(int64(max(d, 0)))
}

// mean returns the mean sampled duration in seconds (0 without samples).
func (b *busy) mean() float64 {
	n := b.n.Load()
	if n == 0 {
		return 0
	}
	return float64(b.ns.Load()) / float64(n) / 1e9
}

func (b *busy) merge(o *busy) {
	b.n.Add(o.n.Load())
	b.ns.Add(o.ns.Load())
}

// roundSpan is one round in full.
type roundSpan struct {
	Round     uint64 `json:"round"`
	PhaseANS  int64  `json:"phase_a_ns"`
	PhaseBNS  int64  `json:"phase_b_ns"`
	Wakes     int    `json:"wakes"`
	Txs       int    `json:"txs"`
	Listeners int    `json:"listeners"`
}

func (r roundSpan) ns() int64 { return r.PhaseANS + r.PhaseBNS }

// slowest is a min-heap of the slowest rounds seen.
type slowest []roundSpan

func (h slowest) Len() int           { return len(h) }
func (h slowest) Less(i, j int) bool { return h[i].ns() < h[j].ns() }
func (h slowest) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowest) Push(x any)        { *h = append(*h, x.(roundSpan)) }
func (h *slowest) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (h *slowest) offer(r roundSpan) {
	switch {
	case len(*h) < slowRounds:
		heap.Push(h, r)
	case r.ns() > (*h)[0].ns():
		(*h)[0] = r
		heap.Fix(h, 0)
	}
}

// slowestFirst returns the kept rounds, slowest first.
func (t *tracer) slowestFirst() []roundSpan {
	s := slices.Clone(t.slow)
	slices.SortFunc(s, func(a, b roundSpan) int { return cmp.Compare(b.ns(), a.ns()) })
	return s
}

// span is one node of an operation's span tree.
type span struct {
	Name     string `json:"name"`
	NS       int64  `json:"ns"`
	Children []span `json:"children,omitempty"`
}

// layerTimes are the driver-boundary spans of one or more operations.
// Clock is the wall time left after the driver calls (PhaseA, PhaseB
// and the tracer's own Replay), the stop polls and Summarize, so the
// six add up to Wall by construction.
type layerTimes struct {
	Wall, Clock, PhaseA, PhaseB, Stop, Summarize, Replay time.Duration
}

func (a layerTimes) sub(b layerTimes) layerTimes {
	return layerTimes{a.Wall - b.Wall, a.Clock - b.Clock, a.PhaseA - b.PhaseA, a.PhaseB - b.PhaseB,
		a.Stop - b.Stop, a.Summarize - b.Summarize, a.Replay - b.Replay}
}

func (a layerTimes) add(b layerTimes) layerTimes {
	return layerTimes{a.Wall + b.Wall, a.Clock + b.Clock, a.PhaseA + b.PhaseA, a.PhaseB + b.PhaseB,
		a.Stop + b.Stop, a.Summarize + b.Summarize, a.Replay + b.Replay}
}

func (a layerTimes) tree(name string) span {
	return span{Name: name, NS: int64(a.Wall), Children: []span{
		{Name: "sim.clock.self", NS: int64(a.Clock)},
		{Name: "sim.phaseA", NS: int64(a.PhaseA)},
		{Name: "sim.phaseB", NS: int64(a.PhaseB)},
		{Name: "core.stop", NS: int64(a.Stop)},
		{Name: "core.summarize", NS: int64(a.Summarize)},
		{Name: "trace.replay", NS: int64(a.Replay)},
	}}
}

// tracer collects the layer spans of the operations it traces. The
// driver-boundary fields are written only by the goroutine running the
// engine; the sampled accumulators are shared with the resolver's
// workers. A tracer traces one engine at a time; Merge folds tracers of
// concurrently traced engines together.
type tracer struct {
	ops  int
	lt   layerTimes
	driv time.Duration // wall time inside the decorated driver's calls

	rounds, wakes, txs, listeners  int64
	cellListeners, linearListeners int64
	txsetRounds, stopPolls         int64
	txsetBuild                     time.Duration
	slow                           slowest
	opSpans                        []span

	wake, deliver, begin, cell, linear busy
	cells, gathered, inRange, replays  atomic.Int64
}

// merge folds o into t. o must no longer be running.
func (t *tracer) merge(o *tracer) {
	t.ops += o.ops
	t.lt = t.lt.add(o.lt)
	t.rounds += o.rounds
	t.wakes += o.wakes
	t.txs += o.txs
	t.listeners += o.listeners
	t.cellListeners += o.cellListeners
	t.linearListeners += o.linearListeners
	t.txsetRounds += o.txsetRounds
	t.stopPolls += o.stopPolls
	t.txsetBuild += o.txsetBuild
	for _, r := range o.slow {
		t.slow.offer(r)
	}
	t.opSpans = append(t.opSpans, o.opSpans...)
	for _, p := range [][2]*busy{{&t.wake, &o.wake}, {&t.deliver, &o.deliver}, {&t.begin, &o.begin}, {&t.cell, &o.cell}, {&t.linear, &o.linear}} {
		p[0].merge(p[1])
	}
	t.cells.Add(o.cells.Load())
	t.gathered.Add(o.gathered.Load())
	t.inRange.Add(o.inRange.Load())
	t.replays.Add(o.replays.Load())
}

// instrumentation is a traced medium and round driver for one engine.
type instrumentation struct {
	medium radio.Medium
	driver sim.RoundDriver
}

// install makes in.medium and in.driver the engine's own.
func (in instrumentation) install(e *sim.Engine) {
	e.Medium = in.medium
	e.UseDriver(in.driver)
}

// plain returns the engine's untraced medium with the standard resolver.
func plain(e *sim.Engine) instrumentation {
	return instrumentation{medium: e.Medium, driver: sim.NewResolverDriver(e, nil)}
}

// instrument builds the traced medium and driver for e, which must have
// all its devices added. With caller set, device calls go through a
// timing sim.Caller; the resolver then drives devices one by one, so
// engines of batched block devices (the dense workload) pass false to
// keep their batched sweeps.
func (t *tracer) instrument(e *sim.Engine, caller bool) (instrumentation, error) {
	cm, ok := e.Medium.(radio.CellMedium)
	if !ok {
		return instrumentation{}, fmt.Errorf("bench: medium %T has no cell path to trace", e.Medium)
	}
	m := &tracedMedium{t: t, inner: cm, r: cm.SenseRange(), metric: geom.L2, boxes: make(map[*radio.CellState]cellBox)}
	if dm, ok := cm.(*radio.DiskMedium); ok {
		m.metric = dm.Metric
	}
	var call sim.Caller
	if caller {
		c := &tracedCaller{t: t, devs: make([]sim.Device, e.Devices()), ids: make([]int, e.Devices())}
		for ix := range c.devs {
			c.devs[ix] = e.DeviceAt(ix)
			c.ids[ix] = c.devs[ix].ID()
		}
		call = c
	}
	d := &tracedDriver{t: t, inner: sim.NewResolverDriver(e, call), medium: m}
	d.hook = d.count
	return instrumentation{medium: m, driver: d}, nil
}

// runUntil is Engine.RunUntil with its wall time split into the clock's
// own time, the driver calls and the stop polls.
func (t *tracer) runUntil(e *sim.Engine, stop sim.Stop, poll, maxRound uint64) uint64 {
	driv0, stop0 := t.driv, t.lt.Stop
	timed := stop
	if stop != nil {
		timed = func(r uint64) bool {
			t0 := time.Now()
			done := stop(r)
			t.lt.Stop += time.Since(t0)
			t.stopPolls++
			return done
		}
	}
	t0 := time.Now()
	end := e.RunUntil(timed, poll, maxRound)
	wall := time.Since(t0)
	t.lt.Wall += wall
	t.lt.Clock += wall - (t.driv - driv0) - (t.lt.Stop - stop0)
	return end
}

// runWorld is the traced equivalent of core.World.Run: the same stop
// poll, poll interval and summary, each timed.
func (t *tracer) runWorld(w *core.World, maxRounds uint64) core.Result {
	before := t.lt
	poll := w.Cycle.Rounds()
	if poll == 0 {
		poll = 1
	}
	end := t.runUntil(w.Eng, func(uint64) bool { return w.HonestDone() }, poll, maxRounds)
	t0 := time.Now()
	res := w.Summarize(end)
	d := time.Since(t0)
	t.lt.Summarize += d
	t.lt.Wall += d
	t.ops++
	t.opSpans = append(t.opSpans, t.lt.sub(before).tree("broadcast"))
	return res
}

// tracedDriver decorates the standard resolver with driver-boundary
// spans and counts. It also replays the TxSet build of each round that
// took the cell path on its own set, the one resolver step no seam
// exposes.
type tracedDriver struct {
	t      *tracer
	inner  sim.RoundDriver
	medium *tracedMedium
	set    radio.TxSet
	hook   sim.ObsHook // d.count, bound once

	user    sim.ObsHook
	a       time.Duration
	nWake   int
	txs     []radio.Tx
	nListen int
}

// Begin implements sim.RoundDriver.
func (d *tracedDriver) Begin(r uint64, wakes []int32) {
	d.medium.endRound()
	t0 := time.Now()
	d.inner.Begin(r, wakes)
	d.a = time.Since(t0)
	d.nWake = len(wakes)
}

// Collect implements sim.RoundDriver.
func (d *tracedDriver) Collect(r uint64) []radio.Tx {
	t0 := time.Now()
	d.txs = d.inner.Collect(r)
	d.a += time.Since(t0)
	return d.txs
}

// Deliver implements sim.RoundDriver. The observation hook is always
// installed, which counts listeners exactly; the engine's own hook, if
// any, still sees every observation in order.
func (d *tracedDriver) Deliver(r uint64, hook sim.ObsHook) {
	t := d.t
	d.user, d.nListen = hook, 0
	t0 := time.Now()
	d.inner.Deliver(r, d.hook)
	b := time.Since(t0)
	t.lt.PhaseA += d.a
	t.lt.PhaseB += b
	t.rounds++
	t.wakes += int64(d.nWake)
	t.txs += int64(len(d.txs))
	t.listeners += int64(d.nListen)
	var replay time.Duration
	if d.medium.cellRound.Swap(false) {
		t.cellListeners += int64(d.nListen)
		t1 := time.Now()
		d.set.Reset(d.txs, d.medium.r)
		replay = time.Since(t1)
		t.txsetBuild += replay
		t.txsetRounds++
	} else {
		t.linearListeners += int64(d.nListen)
	}
	t.lt.Replay += replay
	t.driv += d.a + b + replay
	t.slow.offer(roundSpan{Round: r, PhaseANS: int64(d.a), PhaseBNS: int64(b), Wakes: d.nWake, Txs: len(d.txs), Listeners: d.nListen})
}

func (d *tracedDriver) count(r uint64, dev int, obs radio.Obs) {
	d.nListen++
	if d.user != nil {
		d.user(r, dev, obs)
	}
}

// tracedCaller times a sample of the device callbacks.
type tracedCaller struct {
	t    *tracer
	devs []sim.Device
	ids  []int
}

// Wake implements sim.Caller.
func (c *tracedCaller) Wake(ix int32, r uint64) sim.Step {
	if !sampled(c.ids[ix], r) {
		return c.devs[ix].Wake(r)
	}
	t0 := time.Now()
	st := c.devs[ix].Wake(r)
	c.t.wake.add(time.Since(t0))
	return st
}

// Deliver implements sim.Caller.
func (c *tracedCaller) Deliver(ix int32, r uint64, obs radio.Obs) {
	if !sampled(c.ids[ix], r) {
		c.devs[ix].Deliver(r, obs)
		return
	}
	t0 := time.Now()
	c.devs[ix].Deliver(r, obs)
	c.t.deliver.add(time.Since(t0))
}

// cellBox is the latest cell a CellState was begun for.
type cellBox struct {
	set    *radio.TxSet
	lo, hi geom.Point
}

// tracedMedium forwards every method of a CellMedium, timing a sample of
// the calls. It implements CellMedium itself, so the resolver keeps the
// cell path it would take for the inner medium.
type tracedMedium struct {
	t      *tracer
	inner  radio.CellMedium
	r      float64     // sense range
	metric geom.Metric // the distance the sense range is measured in

	// cellRound is set by BeginCell and cleared by the driver at the end
	// of the round: the round took the cell path. (A round indexed with no
	// listeners begins no cell and counts as linear; it has nobody to
	// count either way.)
	cellRound atomic.Bool

	mu    sync.Mutex // guards boxes and buf
	boxes map[*radio.CellState]cellBox
	buf   []int32
}

// SenseRange implements radio.Medium.
func (m *tracedMedium) SenseRange() float64 { return m.inner.SenseRange() }

// endRound forgets the round's cell boxes: they refer to its TxSet, and
// the resolver's pooled CellStates may be replaced between rounds.
func (m *tracedMedium) endRound() {
	m.mu.Lock()
	clear(m.boxes)
	m.mu.Unlock()
}

// Observe implements radio.Medium: the linear path of sparse rounds.
func (m *tracedMedium) Observe(r uint64, id int, at geom.Point, txs []radio.Tx) radio.Obs {
	if !sampled(id, r) {
		return m.inner.Observe(r, id, at, txs)
	}
	t0 := time.Now()
	obs := m.inner.Observe(r, id, at, txs)
	m.t.linear.add(time.Since(t0))
	return obs
}

// ObserveCand implements radio.CandidateMedium. The resolver prefers the
// cell methods, so this only forwards.
func (m *tracedMedium) ObserveCand(r uint64, id int, at geom.Point, txs []radio.Tx, cand []int32) radio.Obs {
	return m.inner.ObserveCand(r, id, at, txs, cand)
}

// BeginCell implements radio.CellMedium. It counts every cell, times
// one in 16, and remembers the cell's box for the candidate replay.
func (m *tracedMedium) BeginCell(cs *radio.CellState, r uint64, set *radio.TxSet, lo, hi geom.Point) {
	m.mu.Lock()
	m.boxes[cs] = cellBox{set: set, lo: lo, hi: hi}
	m.mu.Unlock()
	m.cellRound.Store(true)
	m.t.cells.Add(1)
	if mix(math.Float64bits(lo.X)^math.Float64bits(lo.Y)<<1, r)&cellMask != 0 {
		m.inner.BeginCell(cs, r, set, lo, hi)
		return
	}
	t0 := time.Now()
	m.inner.BeginCell(cs, r, set, lo, hi)
	m.t.begin.add(time.Since(t0))
}

// ObserveCell implements radio.CellMedium. One listener in 64 is
// timed; one in 256 also replays the cell's candidate gather to count
// how many of the gathered transmissions are really in its range.
func (m *tracedMedium) ObserveCell(cs *radio.CellState, r uint64, id int, at geom.Point) radio.Obs {
	h := mix(uint64(id), r)
	if h&sampleMask != 0 {
		return m.inner.ObserveCell(cs, r, id, at)
	}
	t0 := time.Now()
	obs := m.inner.ObserveCell(cs, r, id, at)
	m.t.cell.add(time.Since(t0))
	if h&replayMask == 0 {
		m.replayGather(cs, at)
	}
	return obs
}

func (m *tracedMedium) replayGather(cs *radio.CellState, at geom.Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.boxes[cs]
	m.buf = b.set.GatherBox(m.buf[:0], b.lo, b.hi, m.r*radio.SenseMargin)
	txs := b.set.Txs()
	in := 0
	for _, k := range m.buf {
		if m.metric.Within(at, txs[k].Pos, m.r) {
			in++
		}
	}
	m.t.gathered.Add(int64(len(m.buf)))
	m.t.inRange.Add(int64(in))
	m.t.replays.Add(1)
}

// layerMetrics reports the tracer's per-layer figures, per traced
// operation.
func (t *tracer) layerMetrics(put func(name string, v float64, unit string)) {
	ops := float64(max(t.ops, 1))
	per := func(d time.Duration) float64 { return d.Seconds() / ops }
	perN := func(n int64) float64 { return float64(n) / ops }
	nsPer := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	put("sim.clock.self_s", per(t.lt.Clock), "s")
	put("sim.clock.rounds", perN(t.rounds), "count")
	put("sim.clock.wakes", perN(t.wakes), "count")
	put("sim.clock.ns_per_wake", nsPer(t.lt.Clock, t.wakes), "ns")
	put("sim.phaseA.wall_s", per(t.lt.PhaseA), "s")
	put("sim.phaseA.ns_per_wake", nsPer(t.lt.PhaseA, t.wakes), "ns")
	wakeBusy := t.wake.mean() * float64(t.wakes)
	deliverBusy := t.deliver.mean() * float64(t.listeners)
	put("proto.wake_busy_s", wakeBusy/ops, "s")
	put("proto.deliver_busy_s", deliverBusy/ops, "s")
	put("proto.ns_per_call", ratio(t.wake.ns.Load()+t.deliver.ns.Load(), t.wake.n.Load()+t.deliver.n.Load()), "ns")
	put("sim.phaseB.wall_s", per(t.lt.PhaseB), "s")
	put("sim.phaseB.listeners", perN(t.listeners), "count")
	put("sim.phaseB.txs", perN(t.txs), "count")
	put("radio.txset_build_s", per(t.txsetBuild), "s")
	put("radio.txset_rounds", perN(t.txsetRounds), "count")
	put("radio.cell_begin_busy_s", t.begin.mean()*float64(t.cells.Load())/ops, "s")
	put("radio.cells", perN(t.cells.Load()), "count")
	put("radio.cell_observe_busy_s", t.cell.mean()*float64(t.cellListeners)/ops, "s")
	put("radio.cell_listeners", perN(t.cellListeners), "count")
	put("radio.cand_per_listener", ratio(t.gathered.Load(), t.replays.Load()), "count")
	put("radio.cand_in_range_frac", ratio(t.inRange.Load(), t.gathered.Load()), "ratio")
	put("radio.linear_observe_busy_s", t.linear.mean()*float64(t.linearListeners)/ops, "s")
	put("radio.linear_listeners", perN(t.linearListeners), "count")
	put("core.stop_s", per(t.lt.Stop), "s")
	put("core.summarize_s", per(t.lt.Summarize), "s")
}
