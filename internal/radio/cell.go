package radio

import (
	"math"
	"slices"

	"authradio/internal/geom"
	"authradio/internal/xrand"
)

// Cell-shared channel resolution. The engine resolves a dense round's
// listeners grouped by spatial cell; every listener of a cell sees the
// same candidate superset, so everything about a candidate that does
// not depend on the individual listener can be computed once per cell
// instead of once per listener. A CellMedium factors that shared half
// out: BeginCell classifies the cell's candidates against the bounding
// box of its listeners, and ObserveCell completes each listener with
// only the per-listener remainder.
//
// What is shareable is constrained by bit-for-bit equivalence with the
// linear scan: the Friis power total is accumulated per listener in
// ascending transmission order, so the float sum itself cannot be
// shared — instead the medium shares the conservative candidate prune,
// the gather of candidate positions into dense arrays (struct-of-
// arrays, so the per-listener loop streams contiguous floats instead
// of chasing 48-byte Tx records), and the (seed, round) fade-hash
// prefix. The disk medium's "power sum" is an in-range count, which is
// order-independent, so it genuinely is shared: candidates whose whole
// box is in range are counted once per cell and each listener only
// corrects for the boundary candidates.
//
// All box classifications are conservative in exact float arithmetic
// (see boxDelta), so a candidate is only dropped or pre-counted when
// every listener position in the box provably agrees with the
// per-listener predicate — observations stay identical to Observe on
// every input.

// CellState is the reusable scratch and shared per-cell state of a
// CellMedium. The zero value is ready for use; the engine keeps one per
// worker. A CellState is only valid between a BeginCell and the next —
// it retains the TxSet's transmissions, so it must not outlive the
// round.
type CellState struct {
	txs []Tx
	raw []int32 // unsorted gather scratch

	idx  []int32   // per-listener candidates, ascending tx index
	xs   []float64 // candidate x positions (parallel to idx)
	ys   []float64 // candidate y positions (parallel to idx)
	srcw []uint64  // Friis: LaneFadeSrc ^ src words (parallel to idx)

	// Friis shared values.
	gate2  float64 // squared sense gate (+Inf when ungated)
	near   float64 // near-field clamp distance
	prefix uint64  // fade-hash state after (Seed, round)
	loss   bool

	// Disk shared values.
	sharedIn int   // candidates in range of every point of the box
	sharedF  Frame // frame of the single shared candidate (sharedIn == 1)
}

// CellMedium is a Medium that the engine resolves cell by cell on dense
// rounds, splitting resolution into a shared per-cell half and a
// per-listener half. For any listener position inside [lo, hi],
// BeginCell followed by ObserveCell must return exactly the Obs that
// Observe returns for the same (round, listener, set.Txs()).
//
// Beware method promotion: a wrapper that embeds a built-in medium and
// overrides only Observe still satisfies CellMedium through the
// promoted cell methods, so the engine would silently bypass the
// override on dense rounds. A wrapper that embeds only the Medium
// interface does not satisfy CellMedium, so the engine resolves it
// linearly and the override takes effect. The same wrapper with no
// override, struct{ Medium }{m}, is how a caller forces the linear
// scan over a cell medium m.
type CellMedium interface {
	Medium
	// ObserveCand resolves one listener against a candidate list: cand
	// holds ascending indices into txs, a superset of those the listener
	// can detect (see TxSet.GatherBox). It must return exactly the Obs
	// that Observe returns for the same (round, listener, txs), so the
	// built-in media ignore cand and scan. The engine never calls it; it
	// stays only because bench/trace.go forwards it.
	ObserveCand(round uint64, listenerID int, at geom.Point, txs []Tx, cand []int32) Obs
	// BeginCell resolves the shared half for the cell whose listeners
	// all lie inside the axis-aligned box [lo, hi].
	BeginCell(cs *CellState, round uint64, set *TxSet, lo, hi geom.Point)
	// ObserveCell completes the observation of one listener of the
	// cell begun by the latest BeginCell on cs.
	ObserveCell(cs *CellState, round uint64, listenerID int, at geom.Point) Obs
}

// boxDelta returns conservative bounds [min, max] on |c - x| over
// c in [lo, hi], exact in float arithmetic: for any float c in the
// interval, the float subtraction c-x lies between lo-x and hi-x
// (subtraction is monotone), so |c-x| is at least max(lo-x, x-hi, 0)
// and at most max(|lo-x|, |hi-x|) with no further rounding involved.
func boxDelta(lo, hi, x float64) (min, max float64) {
	a, b := lo-x, hi-x
	min = 0
	if a > 0 {
		min = a
	} else if -b > 0 {
		min = -b
	}
	max = math.Abs(a)
	if m := math.Abs(b); m > max {
		max = m
	}
	return min, max
}

// BeginCell implements CellMedium. It gathers the cell's candidate
// superset, prunes candidates whose whole box is beyond the sense gate
// (their squared distance exceeds the gate for every listener in the
// box, by monotonicity of float subtract/multiply/add on non-negatives,
// so the per-listener loop would skip them without touching the power
// sum), and packs the survivors into dense position arrays in ascending
// transmission order — the order the per-listener float accumulation
// requires.
func (m *FriisMedium) BeginCell(cs *CellState, round uint64, set *TxSet, lo, hi geom.Point) {
	cs.txs = set.txs
	cs.raw = set.ix.GatherBox(cs.raw[:0], lo, hi, m.SenseRange()*SenseMargin)
	cs.gate2 = m.senseGate2()
	cs.near = m.Lambda / (4 * math.Pi)
	cs.idx = cs.idx[:0]
	for _, i := range cs.raw {
		p := set.pts[i]
		mnx, _ := boxDelta(lo.X, hi.X, p.X)
		mny, _ := boxDelta(lo.Y, hi.Y, p.Y)
		if mnx*mnx+mny*mny > cs.gate2 {
			continue // beyond the gate for every listener in the box
		}
		cs.idx = append(cs.idx, i)
	}
	slices.Sort(cs.idx)
	cs.xs = cs.xs[:0]
	cs.ys = cs.ys[:0]
	for _, i := range cs.idx {
		cs.xs = append(cs.xs, set.pts[i].X)
		cs.ys = append(cs.ys, set.pts[i].Y)
	}
	cs.loss = m.LossProb > 0
	if cs.loss {
		cs.prefix = xrand.HashPrefix(m.Seed, round)
		cs.srcw = cs.srcw[:0]
		for _, i := range cs.idx {
			cs.srcw = append(cs.srcw, xrand.LaneFadeSrc^uint64(set.txs[i].Frame.Src))
		}
	}
}

// ObserveCell implements CellMedium: the per-listener half of Observe,
// streaming the cell's pre-pruned candidate arrays. Arithmetic mirrors
// Observe/powerAt expression by expression (the hypot of the signed
// deltas equals L2.Dist's hypot of their absolutes), so the returned
// Obs is bit-for-bit the linear scan's.
func (m *FriisMedium) ObserveCell(cs *CellState, round uint64, listenerID int, at geom.Point) Obs {
	var total float64
	best := -1
	var bestP float64
	var lh uint64
	if cs.loss {
		lh = xrand.HashAbsorb(cs.prefix, xrand.LaneFadeListener^uint64(listenerID))
	}
	for k, n := 0, len(cs.idx); k < n; k++ {
		dx := at.X - cs.xs[k]
		dy := at.Y - cs.ys[k]
		if dx*dx+dy*dy > cs.gate2 {
			continue
		}
		d := math.Hypot(dx, dy)
		if d < cs.near {
			d = cs.near
		}
		a := m.Lambda / (4 * math.Pi * d)
		p := m.Pt * a * a
		if p < m.CSThreshold {
			continue
		}
		if cs.loss {
			h := xrand.HashFinish(xrand.HashAbsorb(lh, cs.srcw[k]))
			if float64(h>>11)/(1<<53) < m.LossProb {
				continue
			}
		}
		total += p
		if p > bestP {
			bestP, best = p, k
		}
	}
	if total < m.CSThreshold {
		return Silence
	}
	if best < 0 || bestP < m.RxSensitivity {
		return Collision()
	}
	interference := total - bestP
	if interference > 0 {
		if m.CaptureRatio <= 0 || bestP < m.CaptureRatio*interference {
			return Collision()
		}
	}
	return Received(cs.txs[cs.idx[best]].Frame)
}

// BeginCell implements CellMedium. The disk observation depends only on
// the count of in-range transmissions (and the single frame when that
// count is one), and the count is order-independent — so candidates
// that are in range of every point of the box are counted once here,
// candidates out of range of the whole box are dropped, and only the
// boundary candidates are left for the per-listener test.
func (m *DiskMedium) BeginCell(cs *CellState, round uint64, set *TxSet, lo, hi geom.Point) {
	cs.txs = set.txs
	cs.raw = set.ix.GatherBox(cs.raw[:0], lo, hi, m.R*SenseMargin)
	cs.sharedIn = 0
	cs.idx = cs.idx[:0]
	rr := m.R * m.R
	for _, i := range cs.raw {
		p := set.pts[i]
		mnx, mxx := boxDelta(lo.X, hi.X, p.X)
		mny, mxy := boxDelta(lo.Y, hi.Y, p.Y)
		switch m.Metric {
		case geom.LInf:
			if mxx <= m.R && mxy <= m.R {
				cs.sharedIn++
				cs.sharedF = set.txs[i].Frame
				continue
			}
			if mnx > m.R || mny > m.R {
				continue
			}
		default: // geom.L2
			if mxx*mxx+mxy*mxy <= rr {
				cs.sharedIn++
				cs.sharedF = set.txs[i].Frame
				continue
			}
			if mnx*mnx+mny*mny > rr {
				continue
			}
		}
		cs.idx = append(cs.idx, i)
	}
	slices.Sort(cs.idx)
	cs.xs = cs.xs[:0]
	cs.ys = cs.ys[:0]
	for _, i := range cs.idx {
		cs.xs = append(cs.xs, set.pts[i].X)
		cs.ys = append(cs.ys, set.pts[i].Y)
	}
}

// ObserveCell implements CellMedium: start from the cell's shared
// in-range count and correct with the boundary candidates. With two or
// more shared candidates every listener of the cell collides without
// any per-listener work at all.
func (m *DiskMedium) ObserveCell(cs *CellState, round uint64, listenerID int, at geom.Point) Obs {
	inRange := cs.sharedIn
	if inRange > 1 {
		return Collision()
	}
	f := cs.sharedF
	for k, n := 0, len(cs.idx); k < n; k++ {
		if m.Metric.Within(at, geom.Point{X: cs.xs[k], Y: cs.ys[k]}, m.R) {
			inRange++
			if inRange > 1 {
				return Collision()
			}
			f = cs.txs[cs.idx[k]].Frame
		}
	}
	if inRange == 0 {
		return Silence
	}
	return Received(f)
}
