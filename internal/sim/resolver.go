package sim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
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

	// Ownership in the current phase (split): worker k owns the compact
	// indices [bound[k], bound[k+1]), and in phase A its steps start at
	// steps[start[k]].
	bound []int32
	start []int
	team  *team // the fan-out's helpers; nil until a phase first fans out

	// The three phase bodies, owned here so that handing one to
	// parallel allocates nothing.
	wake  wakeJob
	scan  scanJob
	cells cellJob
}

// workerScratch is one worker's scratch: the CellState of its current
// cell, and the observation, handle and owned-index buffers of its
// current cell or block. Each worker slot keeps its own across rounds.
type workerScratch struct {
	cs  radio.CellState
	obs []radio.Obs
	hnd []uint32
	own []int32
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

// ownBlock returns the next block of at most blockSize entries of list,
// from position i on, that lie in [lo, hi), and the position after the
// last entry it examined. When [lo, hi) holds every compact index, the
// block is list[i:] itself, cut at blockSize; otherwise it is gathered
// into the worker's buffer, keeping list order.
func (v *resolver) ownBlock(list []int32, i int, lo, hi int32, sc *workerScratch) ([]int32, int) {
	if lo == 0 && int(hi) == len(v.e.devices) {
		j := min(i+blockSize, len(list))
		return list[i:j], j
	}
	if sc.own == nil {
		sc.own = make([]int32, 0, blockSize)
	}
	b := sc.own[:0]
	span := uint32(hi - lo)
	for ; i < len(list) && len(b) < blockSize; i++ {
		if uint32(list[i]-lo) < span {
			b = append(b, list[i])
		}
	}
	return b, i
}

// Begin runs phase A: wake devices, collect steps, fold transmissions
// and listeners, and schedule next wakes. Each worker wakes the devices
// it owns in blocks of blockSize, one WakeBlock call per run of devices
// sharing a handler, and writes their steps one after another from
// steps[start[k]]; the fold reads them back in wake order.
func (v *resolver) Begin(r uint64, wakes []int32) {
	e := v.e
	if cap(v.steps) < len(wakes) {
		v.steps = make([]Step, len(wakes))
	}
	steps := v.steps[:len(wakes)]
	w := v.split(len(wakes))
	v.wake = wakeJob{v: v, r: r, wakes: wakes, steps: steps}
	v.parallel(w, w, &v.wake)

	// Collect transmissions and listeners, and schedule next wakes.
	v.txs = v.txs[:0]
	v.listenIxs = v.listenIxs[:0]
	srcSorted := true
	lastSrc := math.MinInt
	ends := v.bound[1:w] // exclusive ends of workers 0..w-2
	next := v.start[:w]  // worker -> its next step
	for i, ix := range wakes {
		j := i // one worker's steps are in wake order
		if w > 1 {
			k := 0
			for k < len(ends) && ix >= ends[k] {
				k++
			}
			j = next[k]
			next[k]++
		}
		st := &steps[j]
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

// wakeJob is phase A's body: share k is worker k's wakes, taken from
// the round's list in list order and woken one WakeBlock call per run
// of devices sharing a handler. Their steps fill steps from start[k]
// on, which is the count of the round's wakes that earlier workers own.
type wakeJob struct {
	v     *resolver
	r     uint64
	wakes []int32
	steps []Step
}

func (j *wakeJob) share(k, w int) {
	v := j.v
	sc := v.scratch[w]
	lo, hi := v.bound[k], v.bound[k+1]
	out := 0
	if k > 0 {
		for _, ix := range j.wakes {
			if ix < lo {
				out++
			}
		}
	}
	v.start[k] = out
	for i := 0; i < len(j.wakes); {
		var ixs []int32
		ixs, i = v.ownBlock(j.wakes, i, lo, hi, sc)
		for len(ixs) > 0 {
			h, hs := v.run(ixs, sc)
			h.WakeBlock(j.r, hs, j.steps[out:out+len(hs)])
			out += len(hs)
			ixs = ixs[len(hs):]
		}
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
	w := v.split(len(v.listenIxs))
	v.scan = scanJob{v: v, r: r, rec: rec}
	v.parallel(w, w, &v.scan)
}

// scanJob is the linear phase-B body: share k is worker k's listeners,
// taken from the round's list in list order, a block at a time, each
// observing the round's whole transmission list.
type scanJob struct {
	v   *resolver
	r   uint64
	rec []radio.Obs
}

func (j *scanJob) share(k, w int) {
	v, e := j.v, j.v.e
	sc := v.scratch[w]
	lo, hi := v.bound[k], v.bound[k+1]
	for i := 0; i < len(v.listenIxs); {
		var listeners []int32
		listeners, i = v.ownBlock(v.listenIxs, i, lo, hi, sc)
		obs := sc.observations(len(listeners))
		for q, ix := range listeners {
			obs[q] = e.Medium.Observe(j.r, e.ids[ix], e.pos[ix], v.txs)
		}
		v.deliver(j.r, listeners, sc, j.rec)
	}
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
// device (the route, or the engine's plainHandler when no BlockDevice
// is registered, which Add then gave every device), the run is all of
// ixs and, that handler's handle being the compact index, its handles
// are ixs itself; otherwise they are gathered into the worker's handle
// buffer.
func (v *resolver) run(ixs []int32, sc *workerScratch) (BlockHandler, []uint32) {
	e := v.e
	if v.route != nil || !e.batched {
		h := v.route
		if h == nil {
			h = plainHandler{e: e}
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
// small enough that stealing can rebalance around expensive cells,
// large enough to amortize the steal.
const shardTarget = 64

// deliverCells resolves the round's listeners in spatial-cell order:
// listeners are grouped by the transmission index's cells (TxSet.Group,
// the index's own counting sort, allocation-free after warm-up), one
// BeginCell per cell shares the candidate gather and the
// listener-independent half of the math with every listener in it,
// and cells are packed into contiguous shards, the fan-out's shares.
// Each worker starts on its own contiguous range of shards and, when
// done, steals shards nobody has started, so nearby listeners share
// both the candidate work and its cache lines, and a jammed (expensive)
// region is split across workers instead of serializing one. Each
// cell's observations are delivered together (deliver).
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
	v.parallel(v.workers(nl), len(v.shardEnd), &v.cells)
}

// cellJob is the cell path's phase-B body: share s is shard s,
// resolving and delivering its cells' listeners.
type cellJob struct {
	v   *resolver
	r   uint64
	cm  radio.CellMedium
	rec []radio.Obs
}

func (j *cellJob) share(s, w int) {
	v, e := j.v, j.v.e
	cs, ord := v.listenBy.Start, v.listenBy.IDs
	sc := v.scratch[w]
	first := int32(0)
	if s > 0 {
		first = v.shardEnd[s-1]
	}
	for c := first; c < v.shardEnd[s]; c++ {
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

// blockSize is the block size of the wake sweep and the linear
// listener scan.
const blockSize = 16

// minPerWorker is the number of wakes (phase A) or listeners (phase B)
// each worker must get before a phase fans out. Below it, handing the
// phase to helpers and joining them costs more than the extra cores
// save, so a protocol-sized round (tens of wakes, a few listeners) runs
// on the calling goroutine. BenchmarkRoundFanout locates the crossover
// for plain devices: on a 2-vCPU host, rounds of 1024 wakes fanned out
// to two workers ran about 10% slower than on one, and rounds of 2048
// and 4096 about 25% faster. Protocol devices do more per wake, so
// theirs sits lower: NeighborWatchRB on 16384 devices ran alike, within
// run-to-run noise, at 256, 512 and 1024 per worker (measured when each
// fanned-out phase started its own goroutines).
const minPerWorker = 512

// helperPolls and helperSpins bound an idle helper's wait for the next
// fanned-out phase. Each poll looks for a new phase up to helperSpins
// times and, finding none, yields with runtime.Gosched; after
// helperPolls polls the helper's goroutine exits, and the next phase
// that fans out starts it again. The bound is a count, not a time,
// because the engine does not read the clock. Together they last 1-6
// ms on a 2-vCPU host: long enough that a helper outlives the
// stretches of a NeighborWatchRB broadcast on 16384 devices that do
// not fan out (a median of 7.5 helper starts per broadcast over 12
// broadcasts, against 13 and 58 in two at 2048 polls), short enough
// that no goroutine outlives an idle engine by more than a few
// milliseconds, so nothing needs closing. Looking
// before yielding paid: helpers that yielded after every look, over
// the same lifetime (16384 polls of one look), ran that broadcast in
// 3.7 s against 3.4 s (medians of 12 alternating runs).
const (
	helperPolls = 4096
	helperSpins = 256
)

// workers is the number of workers a phase of the given number of
// items (wakes or listeners) fans out to: min(Workers, items /
// minPerWorker), or 1 when that is less.
func (v *resolver) workers(items int) int {
	return max(1, min(v.e.Workers, items/minPerWorker))
}

// split returns the number of workers for a phase of the given number of
// items and divides the compact indices among them: worker k owns
// [k*n/w, (k+1)*n/w) of the n devices, in bound.
func (v *resolver) split(items int) int {
	w := v.workers(items)
	n := len(v.e.devices)
	v.bound = append(v.bound[:0], 0)
	for k := 1; k < w; k++ {
		v.bound = append(v.bound, int32(k*n/w))
	}
	v.bound = append(v.bound, int32(n))
	if len(v.start) < w {
		v.start = make([]int, w)
	}
	return w
}

// phase is a phase body that parallel fans out: share runs share s on
// the worker whose slot indexes v.scratch. The bodies are job values
// the resolver owns (wakeJob, scanJob, cellJob), so running a phase on
// one worker allocates nothing.
type phase interface {
	share(s, worker int)
}

// parallel runs p's shares [0, n) on w workers. With one worker the
// calling goroutine runs them in order. Otherwise it is owner-computes
// over a persistent team:
//
//   - The calling goroutine is worker 0; workers 1..w-1 are helper
//     goroutines the resolver keeps across phases (team), started when
//     a phase finds one gone.
//   - Worker k owns shares [k*n/w, (k+1)*n/w) and runs them in order.
//     Phase A and the linear phase-B scan have one share per worker,
//     the wakes or listeners among the indices it owns (split), so a
//     device is woken and delivered to on the same core round after
//     round and its state stays in that core's cache; on the cell path
//     the shares are shards.
//   - A worker with nothing left steals shares nobody has started, from
//     the back of another's range, so a helper that is late,
//     descheduled or absent (GOMAXPROCS 1) never stalls a phase.
//
// Every route to the devices, a transport's Caller included, fans out
// by this one rule.
func (v *resolver) parallel(w, n int, p phase) {
	for len(v.scratch) < w {
		v.scratch = append(v.scratch, new(workerScratch))
	}
	if w <= 1 {
		for s := 0; s < n; s++ {
			p.share(s, 0)
		}
		return
	}
	t := v.team
	if t == nil || len(t.ranges) < w {
		// A team is sized for Workers; an older, smaller one's helpers
		// find no more phases and exit on their own.
		t = &team{ranges: make([]shareRange, v.e.Workers), live: make([]atomic.Bool, v.e.Workers)}
		v.team = t
	}
	t.job = p
	t.width.Store(int32(w))
	t.pending.Store(int32(n))
	gen := t.gen.Load() + 1
	for k := 0; k < w; k++ {
		t.ranges[k].open(gen, k*n/w, (k+1)*n/w)
	}
	t.gen.Store(gen)
	for k := 1; k < w; k++ {
		if t.live[k].CompareAndSwap(false, true) {
			go t.help(k)
		}
	}
	t.work(0, gen)
	for t.pending.Load() > 0 {
		runtime.Gosched()
	}
}

// team is the fan-out's persistent helpers and the current phase's
// shares. The caller publishes a phase by writing job, opening the
// ranges under the phase's number and then storing that number in gen,
// which idle helpers watch; a worker reads job only after claiming a
// share from a range, and the caller writes the next job only once
// every share is done, so job needs no lock.
type team struct {
	job     phase
	width   atomic.Int32  // workers in the current phase
	pending atomic.Int32  // shares of the current phase not yet done
	gen     atomic.Uint64 // the current phase's number
	ranges  []shareRange  // worker -> its shares nobody has started
	live    []atomic.Bool // helper -> its goroutine is running
}

// shareRange holds one worker's shares nobody has started, [front,
// back), with the number of the phase they belong to, packed as
// gen<<48 | front<<24 | back: the owner claims from the front, thieves
// from the back, and only for the phase they started on, so a worker
// that finishes one phase's pass late takes nothing of the next one's
// out of its owner's hands. The padding keeps each worker's range on
// its own cache line.
type shareRange struct {
	a atomic.Uint64
	_ [56]byte
}

// shareBits is the width of a range bound: a phase has fewer than
// 1<<shareBits shares (phase A and the linear scan one per worker, the
// cell path a shard per ~shardTarget listeners).
const shareBits = 24

// open sets r to the shares [front, back) of phase gen.
func (r *shareRange) open(gen uint64, front, back int) {
	r.a.Store(gen<<(2*shareBits) | uint64(front)<<shareBits | uint64(back))
}

// claim takes one share of phase gen from r, from the front for its
// owner and from the back for a thief, and reports false when r holds
// none of that phase.
func (r *shareRange) claim(gen uint64, owner bool) (int, bool) {
	const mask = 1<<shareBits - 1
	for {
		old := r.a.Load()
		front, back := int(old>>shareBits&mask), int(old&mask)
		if old>>(2*shareBits) != gen&(1<<(64-2*shareBits)-1) || front >= back {
			return 0, false
		}
		if owner {
			if r.a.CompareAndSwap(old, old+1<<shareBits) {
				return front, true
			}
		} else if r.a.CompareAndSwap(old, old-1) {
			return back - 1, true
		}
	}
}

// work runs worker k's own shares of phase gen, then steals from the
// other workers' ranges, and reports whether it ran any.
func (t *team) work(k int, gen uint64) bool {
	w := int(t.width.Load())
	if k >= w {
		return false
	}
	done := int32(0)
	for d := 0; d < w; d++ {
		o := (k + d) % w
		for {
			s, ok := t.ranges[o].claim(gen, d == 0)
			if !ok {
				break
			}
			t.job.share(s, k)
			done++
		}
	}
	if done > 0 {
		t.pending.Add(-done)
	}
	return done > 0
}

// help is helper k's goroutine: it works every phase it sees open and,
// after helperPolls polls without one, exits. It clears its live flag
// before a last look, so a phase opened meanwhile is either seen by
// that look or starts a new helper.
func (t *team) help(k int) {
	var seen uint64 // the last phase this helper looked at
	for polls := 0; ; {
		if gen := t.gen.Load(); gen != seen {
			seen = gen
			if t.work(k, gen) {
				polls = 0
			}
			continue
		}
		if polls++; polls < helperPolls {
			if !t.await(seen) {
				runtime.Gosched()
			}
			continue
		}
		t.live[k].Store(false)
		if t.gen.Load() == seen || !t.live[k].CompareAndSwap(false, true) {
			return
		}
		polls = 0
	}
}

// await watches up to helperSpins times for a phase after seen to open
// and reports whether one did.
func (t *team) await(seen uint64) bool {
	for range helperSpins {
		if t.gen.Load() != seen {
			return true
		}
	}
	return false
}
