package topo

import (
	"cmp"
	"math"
	"slices"
)

// This file tracks connectivity of the live communication graph with a
// union-find (disjoint-set) structure: path halving plus union by size.
// Experiments use it to report delivery per surviving component instead
// of global means that hide partitions (a crashed or churning cut
// vertex can split the deployment; nodes in a component the source
// cannot reach are not "failures to deliver" so much as "unreachable",
// and the two must not be averaged together). LiveComponents fills it
// from a grid of half-range cells, so it never enumerates the neighbor
// graph: a partition needs only enough edges to connect each
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

// cellReach is how many cells apart, along either axis, two devices
// within range can be when cells are at least R/2 wide: two in exact
// arithmetic, three once the floor in the cell computation rounds a
// pair at exactly R across a cell border.
const cellReach = 3

// maxCellSpan caps the live devices' extent in cells along either
// axis, so cell coordinates fit in int32 and their rounding error stays
// far below one cell.
const maxCellSpan = 1 << 30

// cellDev is a live device and the grid cell it falls in.
type cellDev struct{ cy, cx, id int32 }

// before reports whether c's cell precedes cell (y, x) in row-major
// order.
func (c cellDev) before(y, x int32) bool { return c.cy < y || c.cy == y && c.cx < x }

// LiveComponents returns the connected components of the deployment's
// communication graph restricted to the devices with alive[i] true:
// two alive devices are connected when they are within range R. Each
// dead device remains a singleton set (callers that want component
// statistics over live devices only should skip them). alive nil means
// every device is alive.
//
// The pass never enumerates the neighbor graph. It sorts the live
// devices into square cells of side R/2, by (cell y, cell x, id), and
// unions each cell's devices outright: two devices in one cell are at
// most R/√2 apart, in range under L2 and L∞ by a margin no rounding can
// close. Two devices in range are at most cellReach cells apart along
// each axis, so it then visits each pair of occupied cells within that
// reach, nearer rings first, since a far pair is mostly joined through
// nearer cells by the time it comes up. For a pair not yet in one set
// it tests device pairs with the exact Metric.Within and stops at the
// first that links them. Components do not depend on which edges found
// them, so the partition is the neighbor graph's.
//
// Sorted cells stay R/2 wide however sparse the map. Only when the
// live devices span more than maxCellSpan such cells do the cells
// widen, to keep their coordinates exact; two devices in one cell may
// then be out of range, so every device pair in a cell, and in each
// cell pair within reach, is tested.
func (d *Deployment) LiveComponents(alive []bool) *UnionFind {
	u := NewUnionFind(d.N())
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	live := 0
	for i, p := range d.Pos {
		if alive == nil || alive[i] {
			minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
			maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
			live++
		}
	}
	if live == 0 {
		return u
	}
	side, wide := d.R/2, false
	if s := math.Max(maxX-minX, maxY-minY) / maxCellSpan; s > side {
		side, wide = s, true
	}
	devs := make([]cellDev, 0, live)
	for i, p := range d.Pos {
		if alive == nil || alive[i] {
			devs = append(devs, cellDev{cy: int32((p.Y - minY) / side), cx: int32((p.X - minX) / side), id: int32(i)})
		}
	}
	slices.SortFunc(devs, func(a, b cellDev) int {
		if c := cmp.Compare(a.cy, b.cy); c != 0 {
			return c
		}
		if c := cmp.Compare(a.cx, b.cx); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	// start[k] is the offset in devs of the k-th occupied cell; the
	// last entry closes the final cell.
	start := make([]int32, 0, live+1)
	for i, c := range devs {
		if i == 0 || c.cy != devs[i-1].cy || c.cx != devs[i-1].cx {
			start = append(start, int32(i))
		}
	}
	cells := len(start)
	start = append(start, int32(live))
	cell := func(k int) []cellDev { return devs[start[k]:start[k+1]] }

	link := func(a, b []cellDev) {
		if wide {
			for _, p := range a {
				for _, q := range b {
					if !u.Same(int(p.id), int(q.id)) && d.Metric.Within(d.Pos[p.id], d.Pos[q.id], d.R) {
						u.Union(int(p.id), int(q.id))
					}
				}
			}
			return
		}
		if u.Same(int(a[0].id), int(b[0].id)) {
			return
		}
		for _, p := range a {
			for _, q := range b {
				if d.Metric.Within(d.Pos[p.id], d.Pos[q.id], d.R) {
					u.Union(int(p.id), int(q.id))
					return
				}
			}
		}
	}

	for k := range cells {
		if c := cell(k); wide {
			link(c, c)
		} else {
			for _, q := range c[1:] {
				u.Union(int(c[0].id), int(q.id))
			}
		}
	}
	// Visit each cell offset (dx, dy) within reach, one of each ±
	// pair, ring max(|dx|, |dy|) by ring. For one offset the target
	// cells ascend with the cells in devs' order, so one cursor sweep
	// finds them all.
	for r := int32(1); r <= cellReach; r++ {
		for dy := int32(0); dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if max(dx, -dx, dy) != r || dy == 0 && dx < 0 {
					continue
				}
				j := 0
				for k := range cells {
					a := cell(k)
					y, x := a[0].cy+dy, a[0].cx+dx
					for j < cells && devs[start[j]].before(y, x) {
						j++
					}
					if j < cells && devs[start[j]].cy == y && devs[start[j]].cx == x {
						link(a, cell(j))
					}
				}
			}
		}
	}
	return u
}
