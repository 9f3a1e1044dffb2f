package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"authradio/internal/geom"
	"authradio/internal/radio"
)

// This file is the round resolver: the default RoundDriver. Phase A
// (Begin) wakes the round's devices and folds their steps into
// transmissions, listeners, tx counts and follow-up wake-ups; phase B
// (Deliver) resolves the channel for every listener, either by the
// linear scan or, on dense rounds over a radio.CellMedium, cell by cell
// over a spatial transmission index. Both phases reach devices only
// through block handlers (block.go) and, when big enough, fan out
// through one rule (parallel). All bookkeeping lives here so that every
// transport behind the seam shares it bit for bit.

// minIndexedTxs is the round density below which building the spatial
// transmission index costs more than the linear scans it saves.
const minIndexedTxs = 16

// resolver implements RoundDriver. Per-round scratch is reused across
// rounds, keeping the hot loops allocation-free after warm-up.
type resolver struct {
	e *Engine
	// route, when set, handles every device (a transport's Caller);
	// otherwise each device goes to the block handler cached at Add.
	route BlockHandler

	steps     []Step
	txs       []radio.Tx
	listenIxs []int32
	txSet     radio.TxSet
	listenBy  geom.Buckets     // listener indices grouped by txSet's cells
	shardEnd  []int32          // phase-B shard -> exclusive end cell
	obsRec    []radio.Obs      // index -> observation (only when a hook is set)
	scratch   []*workerScratch // worker slot -> that worker's scratch

	// The three phase bodies, owned here so that handing one to
	// parallel allocates nothing.
	wake  wakeJob
	scan  scanJob
	cells cellJob
}

// workerScratch is one worker's scratch: the CellState of its current
// cell, and the observation and handle buffers of its current cell or
// block. Each worker slot keeps its own across rounds.
type workerScratch struct {
	cs  radio.CellState
	obs []radio.Obs
	hnd []uint32
}

// observations sizes the worker's observation buffer to n listeners and
// returns it.
func (sc *workerScratch) observations(n int) []radio.Obs {
	if cap(sc.obs) < n {
		sc.obs = make([]radio.Obs, n)
	}
	sc.obs = sc.obs[:n]
	return sc.obs
}

// Begin runs phase A: wake devices, collect steps, fold transmissions
// and listeners, and schedule next wakes. Wakes run in blocks of
// blockSize, one WakeBlock call per run of devices sharing a handler.
func (v *resolver) Begin(r uint64, wakes []int32) {
	e := v.e
	if cap(v.steps) < len(wakes) {
		v.steps = make([]Step, len(wakes))
	}
	steps := v.steps[:len(wakes)]
	v.wake = wakeJob{v: v, r: r, wakes: wakes, steps: steps}
	v.parallel(len(wakes), len(wakes), blockSize, &v.wake)

	// Collect transmissions and listeners, and schedule next wakes.
	v.txs = v.txs[:0]
	v.listenIxs = v.listenIxs[:0]
	srcSorted := true
	lastSrc := math.MinInt
	for i, st := range steps {
		ix := wakes[i]
		switch st.Action {
		case Transmit:
			f := st.Frame
			f.Src = e.ids[ix]
			if f.Src < lastSrc {
				srcSorted = false
			}
			lastSrc = f.Src
			v.txs = append(v.txs, radio.Tx{Pos: e.pos[ix], Frame: f})
			e.txCount[ix]++
		case Listen:
			v.listenIxs = append(v.listenIxs, ix)
		}
		if st.NextWake != NoWake {
			if st.NextWake <= r {
				panic(fmt.Sprintf("sim: device %d scheduled non-future wake %d at round %d", e.ids[ix], st.NextWake, r))
			}
			e.schedule(ix, st.NextWake)
		}
	}
	// Canonical transmission order: ascending transmitter id,
	// independent of wake bucketing. Media accumulate interference in
	// transmission order, so this keeps observations (and OnRound
	// traces) bit-for-bit identical whatever the wake order. Wake order
	// usually is id order already, making the check free.
	if !srcSorted {
		slices.SortFunc(v.txs, func(a, b radio.Tx) int { return cmp.Compare(a.Frame.Src, b.Frame.Src) })
	}
}

// wakeJob is phase A's body: its pieces are runs of wakes, woken one
// WakeBlock call per run of devices sharing a handler.
type wakeJob struct {
	v     *resolver
	r     uint64
	wakes []int32
	steps []Step
}

func (j *wakeJob) piece(lo, hi, w int) {
	sc := j.v.scratch[w]
	for i := lo; i < hi; {
		h, hs := j.v.run(j.wakes[i:hi], sc)
		h.WakeBlock(j.r, hs, j.steps[i:i+len(hs)])
		i += len(hs)
	}
}

// Collect returns the transmissions folded by the preceding Begin.
func (v *resolver) Collect(r uint64) []radio.Tx { return v.txs }

// Deliver runs phase B: resolve the channel for each listener. For
// dense rounds over a cell medium, bucket the transmissions into a
// spatial hash once and share it across all listeners, so each listener
// examines only transmissions within sense range instead of the whole
// round: O(listeners × local) instead of O(listeners × txs). Both paths
// produce bit-for-bit identical observations (media are pure functions
// of (round, listener, txs)).
func (v *resolver) Deliver(r uint64, hook ObsHook) {
	if len(v.listenIxs) == 0 {
		return
	}
	var rec []radio.Obs
	if hook != nil {
		if cap(v.obsRec) < len(v.e.devices) {
			v.obsRec = make([]radio.Obs, len(v.e.devices))
		}
		rec = v.obsRec[:len(v.e.devices)]
	}
	v.resolve(r, rec)
	if hook != nil {
		// Emit sequentially in listener wake order so rx traces are
		// stable no matter which delivery path or worker count
		// resolved the round.
		for _, ix := range v.listenIxs {
			hook(r, v.e.ids[ix], rec[ix])
		}
	}
}

// resolve picks the channel-resolution path for the round's listeners:
// the cell path for dense rounds over a cell medium with a finite sense
// range (an unbounded medium gains nothing from spatial bucketing), the
// linear Observe scan otherwise.
func (v *resolver) resolve(r uint64, rec []radio.Obs) {
	e := v.e
	if cm, ok := e.Medium.(radio.CellMedium); ok && len(v.txs) >= minIndexedTxs {
		if sr := cm.SenseRange(); sr > 0 && !math.IsInf(sr, 1) {
			v.txSet.Reset(v.txs, sr)
			v.deliverCells(r, cm, rec)
			return
		}
	}
	v.scan = scanJob{v: v, r: r, rec: rec}
	v.parallel(len(v.listenIxs), len(v.listenIxs), blockSize, &v.scan)
}

// scanJob is the linear phase-B body: its pieces are runs of
// listeners, each observing the round's whole transmission list.
type scanJob struct {
	v   *resolver
	r   uint64
	rec []radio.Obs
}

func (j *scanJob) piece(lo, hi, w int) {
	v, e := j.v, j.v.e
	sc := v.scratch[w]
	listeners := v.listenIxs[lo:hi]
	obs := sc.observations(len(listeners))
	for k, ix := range listeners {
		obs[k] = e.Medium.Observe(j.r, e.ids[ix], e.pos[ix], v.txs)
	}
	v.deliver(j.r, listeners, sc, j.rec)
}

// deliver hands sc.obs[k] to listener ixs[k], one DeliverBlock call per
// run of listeners sharing a handler, and records the observations
// when an observation hook is active this round.
func (v *resolver) deliver(r uint64, ixs []int32, sc *workerScratch, rec []radio.Obs) {
	for i := 0; i < len(ixs); {
		h, hs := v.run(ixs[i:], sc)
		h.DeliverBlock(r, hs, sc.obs[i:i+len(hs)])
		i += len(hs)
	}
	if rec != nil {
		for k, ix := range ixs {
			rec[ix] = sc.obs[k]
		}
	}
}

// run returns the handler of device ixs[0] and the handles of the run
// of devices from ixs[0] that share it. When one handler drives every
// device (the route, or the plainHandler when no BlockDevice is
// registered), the run is all of ixs and, that handler's handle being
// the compact index, its handles are ixs itself; otherwise they are
// gathered into the worker's handle buffer.
func (v *resolver) run(ixs []int32, sc *workerScratch) (BlockHandler, []uint32) {
	e := v.e
	if v.route != nil || !e.batched {
		h := v.route
		if h == nil {
			h = e.blockH[ixs[0]]
		}
		return h, asHandles(ixs)
	}
	h := e.blockH[ixs[0]]
	if cap(sc.hnd) < len(ixs) {
		sc.hnd = make([]uint32, len(ixs))
	}
	hnd := sc.hnd[:len(ixs)]
	j := 0
	for ; j < len(ixs) && e.blockH[ixs[j]] == h; j++ {
		hnd[j] = e.blockIx[ixs[j]]
	}
	return h, hnd[:j]
}

// asHandles views compact indices as handles of a handler whose handle
// is the compact index, without copying them: indices are
// non-negative, so each int32 has the bits of its uint32 handle. Only
// the engine's own handlers, which never write to handles, get such a
// view.
func asHandles(ixs []int32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(ixs))), len(ixs))
}

// shardTarget is the number of listeners a phase-B shard aims for:
// small enough that work stealing can rebalance around expensive cells,
// large enough to amortize the steal.
const shardTarget = 64

// deliverCells resolves the round's listeners in spatial-cell order:
// listeners are grouped by the transmission index's cells (TxSet.Group,
// the index's own counting sort, allocation-free after warm-up), one
// BeginCell per cell shares the candidate gather and the
// listener-independent half of the math with every listener in it,
// and cells are packed into contiguous shards claimed by workers
// through an atomic cursor. Nearby listeners therefore share both the
// candidate work and its cache lines, and a jammed (expensive) region
// is split across many shards instead of serializing one worker's
// chunk. Each cell's observations are delivered together (deliver).
func (v *resolver) deliverCells(r uint64, cm radio.CellMedium, rec []radio.Obs) {
	nl := len(v.listenIxs)
	v.txSet.Group(&v.listenBy, v.e.pos, v.listenIxs)
	cs := v.listenBy.Start
	cells := len(cs) - 1

	// Pack cells into contiguous shards of ~shardTarget listeners.
	v.shardEnd = v.shardEnd[:0]
	cut := int32(0)
	for c := 0; c < cells; c++ {
		if cs[c+1]-cut >= shardTarget {
			v.shardEnd = append(v.shardEnd, int32(c+1))
			cut = cs[c+1]
		}
	}
	if cut < int32(nl) {
		v.shardEnd = append(v.shardEnd, int32(cells))
	}

	v.cells = cellJob{v: v, r: r, cm: cm, rec: rec}
	v.parallel(nl, len(v.shardEnd), 1, &v.cells)
}

// cellJob is the cell path's phase-B body: its pieces are runs of
// shards, each resolving and delivering its cells' listeners.
type cellJob struct {
	v   *resolver
	r   uint64
	cm  radio.CellMedium
	rec []radio.Obs
}

func (j *cellJob) piece(lo, hi, w int) {
	v, e := j.v, j.v.e
	cs, ord := v.listenBy.Start, v.listenBy.IDs
	sc := v.scratch[w]
	first := int32(0)
	if lo > 0 {
		first = v.shardEnd[lo-1]
	}
	for c := first; c < v.shardEnd[hi-1]; c++ {
		a, b := cs[c], cs[c+1]
		if a == b {
			continue
		}
		// One shared half per cell, over the bounding box of the cell's
		// listeners (their positions may clamp into a border cell from
		// outside the grid).
		pmin := e.pos[ord[a]]
		pmax := pmin
		for _, ix := range ord[a+1 : b] {
			p := e.pos[ix]
			pmin.X = math.Min(pmin.X, p.X)
			pmin.Y = math.Min(pmin.Y, p.Y)
			pmax.X = math.Max(pmax.X, p.X)
			pmax.Y = math.Max(pmax.Y, p.Y)
		}
		j.cm.BeginCell(&sc.cs, j.r, &v.txSet, pmin, pmax)
		obs := sc.observations(int(b - a))
		for k, ix := range ord[a:b] {
			obs[k] = j.cm.ObserveCell(&sc.cs, j.r, e.ids[ix], e.pos[ix])
		}
		v.deliver(j.r, ord[a:b], sc, j.rec)
	}
}

// blockSize is the piece size of the wake sweep and the linear
// listener scan.
const blockSize = 16

// minPerWorker is the number of wakes (phase A) or listeners (phase B)
// each worker must get before a phase fans out. Below it, handing the
// phase to goroutines and joining them costs more than the extra cores
// save, so a protocol-sized round (tens of wakes, a few listeners) runs
// on the calling goroutine. BenchmarkRoundFanout locates the crossover
// for plain devices: on a 2-vCPU host, rounds fanned out to two workers
// ran slower than on one up to about 1024 wakes and listeners, broke
// even near 2048 and won at 4096. Protocol devices do more per wake, so
// theirs sits lower: NeighborWatchRB on 16384 devices ran alike, within
// run-to-run noise, at 256, 512 and 1024 per worker.
const minPerWorker = 512

// phase is a phase body that parallel fans out: piece handles the
// pieces [lo, hi) on the worker whose slot indexes v.scratch. The
// bodies are job values the resolver owns (wakeJob, scanJob, cellJob),
// so running a phase on one worker allocates nothing.
type phase interface {
	piece(lo, hi, worker int)
}

// parallel runs p over the pieces of [0, n), grain indices each. items
// is the phase's work: its wakes in phase A, its listeners in phase B
// (on the cell path n counts shards, items still listeners). The phase
// fans out to min(Workers, items/minPerWorker) goroutines that claim
// pieces through an atomic cursor, so uneven per-piece cost rebalances
// across workers instead of stretching one pre-assigned chunk; with
// one worker or fewer it runs the pieces in order on the calling
// goroutine. Every route to the devices, a transport's Caller
// included, fans out by this one rule.
func (v *resolver) parallel(items, n, grain int, p phase) {
	w := min(v.e.Workers, items/minPerWorker)
	for len(v.scratch) < max(w, 1) {
		v.scratch = append(v.scratch, new(workerScratch))
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += grain {
			p.piece(lo, min(lo+grain, n), 0)
		}
		return
	}
	pieces := int32((n + grain - 1) / grain)
	var cursor atomic.Int32
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for q := cursor.Add(1) - 1; q < pieces; q = cursor.Add(1) - 1 {
				lo := int(q) * grain
				p.piece(lo, min(lo+grain, n), k)
			}
		}()
	}
	wg.Wait()
}
