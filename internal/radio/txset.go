package radio

import (
	"slices"

	"authradio/internal/geom"
)

// TxSet is one round's transmissions together with a spatial hash over
// their positions. In dense rounds, resolving the channel for every
// listener against the full transmission list is O(listeners × txs);
// a TxSet lets a CellMedium examine only the transmissions near each
// cell of listeners, which is O(listeners × local) for geometrically
// bounded media. The listeners are grouped by the same cells as the
// transmissions (Group), so one spatial hash serves both sides.
//
// A TxSet is built (or rebuilt, allocation-free after warm-up) once per
// round via Reset and is then safe for concurrent reads, so one set is
// shared by all listeners of the round.
type TxSet struct {
	txs []Tx
	pts []geom.Point
	ix  geom.GridIndex
}

// Reset rebuilds the set over txs using the given spatial-hash cell
// size (typically the medium's sense range). The txs slice is retained
// and must not be mutated until the next Reset.
func (s *TxSet) Reset(txs []Tx, cell float64) {
	s.txs = txs
	s.pts = s.pts[:0]
	for i := range txs {
		s.pts = append(s.pts, txs[i].Pos)
	}
	s.ix.Reset(s.pts, cell)
}

// Len returns the number of transmissions in the set.
func (s *TxSet) Len() int { return len(s.txs) }

// Txs returns the underlying transmissions (read-only).
func (s *TxSet) Txs() []Tx { return s.txs }

// Group buckets the points pos[ix], for each ix in ixs, by the cells
// of the set's spatial hash into b (see geom.GridIndex.Group); points
// outside the grid clamp to its border cells. The grouping is valid
// until the next Reset. The engine groups each round's listeners with
// it, so that nearby listeners are resolved together.
func (s *TxSet) Group(b *geom.Buckets, pos []geom.Point, ixs []int32) { s.ix.Group(b, pos, ixs) }

// GatherBox appends to dst, in ascending order, the indices of every
// transmission whose spatial-hash cell overlaps the axis-aligned box
// [lo-r, hi+r], and returns the extended slice. The result is a
// superset of the transmissions within distance r (under L2 or LInf) of
// any listener inside [lo, hi], so one gather can be shared by all
// listeners of a cell and resolved per listener with the exact
// range/power predicates (see CellMedium). Ascending order keeps
// the shared candidate list iterating in exactly the linear scan's
// transmission order.
func (s *TxSet) GatherBox(dst []int32, lo, hi geom.Point, r float64) []int32 {
	dst = s.ix.GatherBox(dst, lo, hi, r)
	slices.Sort(dst)
	return dst
}

// ObserveCand implements CellMedium with the full scan; cand is unused.
func (m *DiskMedium) ObserveCand(round uint64, listenerID int, at geom.Point, txs []Tx, cand []int32) Obs {
	return m.Observe(round, listenerID, at, txs)
}

// ObserveCand implements CellMedium with the full scan; cand is unused.
func (m *FriisMedium) ObserveCand(round uint64, listenerID int, at geom.Point, txs []Tx, cand []int32) Obs {
	return m.Observe(round, listenerID, at, txs)
}

// SenseMargin slightly inflates an indexed query radius over
// SenseRange so that floating-point disagreement between the distance
// predicates cannot drop a transmission right at the sense boundary.
// The per-candidate range and power tests in ObserveCell re-apply the
// exact thresholds, so extra candidates never change the observation.
const SenseMargin = 1 + 1e-9
