package topo

import (
	"math"

	"authradio/internal/geom"
)

// This file tracks connectivity of the live communication graph with a
// union-find (disjoint-set) structure: path halving plus union by size.
// Experiments use it to report delivery per surviving component instead
// of global means that hide partitions (a crashed or churning cut
// vertex can split the deployment; nodes in a component the source
// cannot reach are not "failures to deliver" so much as "unreachable",
// and the two must not be averaged together). LiveComponents fills it
// from a geom.GridIndex of half-range cells, the same cell layout that
// serves range queries and phase B, so it never enumerates the
// neighbor graph: a partition needs only enough edges to connect each
// component, and components do not depend on which edges found them.

// UnionFind is a disjoint-set forest over n elements with path halving
// and union by size. The zero value is unusable; use NewUnionFind.
type UnionFind struct {
	parent []int32
	size   []int32
	count  int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), size: make([]int32, n), count: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Find returns the representative of x's set, halving the path on the
// way up.
func (u *UnionFind) Find(x int) int {
	p := int32(x)
	for u.parent[p] != p {
		gp := u.parent[u.parent[p]]
		u.parent[p] = gp
		p = gp
	}
	return int(p)
}

// Union merges the sets of x and y (smaller onto larger) and reports
// whether a merge happened.
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := int32(u.Find(x)), int32(u.Find(y))
	if rx == ry {
		return false
	}
	if u.size[rx] < u.size[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	u.size[rx] += u.size[ry]
	u.count--
	return true
}

// Same reports whether x and y are in one set.
func (u *UnionFind) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// SizeOf returns the size of x's set.
func (u *UnionFind) SizeOf(x int) int { return int(u.size[u.Find(x)]) }

// Count returns the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// LiveComponents returns the connected components of the deployment's
// communication graph restricted to the devices with alive[i] true:
// two alive devices are connected when they are within range R. Each
// dead device remains a singleton set (callers that want component
// statistics over live devices only should skip them). alive nil means
// every device is alive.
//
// The pass never enumerates the neighbor graph. It indexes every
// device in a geom.GridIndex of cell side R/2 and, skipping dead
// devices, unions each cell's devices outright: two devices in one
// cell are at most R/√2 apart, in range under L2 and L∞ by a margin no
// rounding can close. Two devices in range are at most reach =
// ⌈R/cell⌉+1 cells apart along each axis (3 at R/2: 2 in exact
// arithmetic, one more once the floor rounds a pair at exactly R
// across a cell border), so it then visits each pair of cells within
// that reach, nearer rings first, since a far pair is mostly joined
// through nearer cells by the time it comes up. For a pair not yet in
// one set it tests device pairs with the exact Metric.Within and stops
// at the first that links them. Components do not depend on which
// edges found them, so the partition is the neighbor graph's.
//
// The index widens its cells past R/2 when R/2 cells would outnumber
// 4n+16 (n devices), which takes fewer than about one device per R²
// of bounding box, under π expected neighbors per device on a uniform
// map. Two devices in one cell may then be out of range, so every
// device pair in a cell, and in each cell pair within reach, is
// tested: a widened cell of k devices costs O(k²) pair tests.
func (d *Deployment) LiveComponents(alive []bool) *UnionFind {
	u := NewUnionFind(d.N())
	var g geom.GridIndex
	g.Reset(d.Pos, d.R/2)
	cols, rows := g.Dims()
	wide := g.CellSize() != d.R/2
	reach := int(math.Ceil(d.R/g.CellSize())) + 1
	live := func(i int32) bool { return alive == nil || alive[i] }
	// lead returns the first live device of a cell, or -1.
	lead := func(c []int32) int {
		for _, i := range c {
			if live(i) {
				return int(i)
			}
		}
		return -1
	}

	// link unions the live pairs in range across cells a and b; on
	// half-range cells, where a and b are each one set, the first does.
	link := func(a, b []int32) {
		if la, lb := lead(a), lead(b); la < 0 || lb < 0 || !wide && u.Same(la, lb) {
			return
		}
		for _, p := range a {
			if !live(p) {
				continue
			}
			for _, q := range b {
				if live(q) && d.Metric.Within(d.Pos[p], d.Pos[q], d.R) {
					u.Union(int(p), int(q))
					if !wide {
						return
					}
				}
			}
		}
	}

	for c := range cols * rows {
		a := g.Cell(c)
		if wide {
			for k := range a {
				link(a[k:k+1], a[k+1:])
			}
		} else if l := lead(a); l >= 0 {
			for _, i := range a {
				if live(i) {
					u.Union(l, int(i))
				}
			}
		}
	}
	// Visit each cell offset (dx, dy) within reach, one of each ±
	// pair, ring max(|dx|, |dy|) by ring.
	for r := 1; r <= reach; r++ {
		for dy := 0; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if max(dx, -dx, dy) != r || dy == 0 && dx < 0 {
					continue
				}
				for cy := 0; cy+dy < rows; cy++ {
					for cx := max(0, -dx); cx < cols && cx+dx < cols; cx++ {
						link(g.Cell(cy*cols+cx), g.Cell((cy+dy)*cols+cx+dx))
					}
				}
			}
		}
	}
	return u
}
