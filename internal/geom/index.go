package geom

import "math"

// bounds returns the bounding box of pts.
func bounds(pts []Point) (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	return
}

// GridIndex is a spatial hash over a point set, supporting "all points
// within distance r of p" queries and cell-grouped box gathers. It is
// the one code that puts points into uniform cells: a deployment's
// range index, each simulated radio round's transmission index (whose
// cells also group the round's listeners, see Group) and the
// partition pass's half-range cells are all GridIndexes. The cells are
// a uniform cols×rows grid anchored at the points' bounding box, and
// the buckets are stored in CSR layout (see Buckets), so Reset reuses
// all backing arrays and, after warm-up, rebuilding the index
// allocates nothing. Queries may use any radius; out-of-range points
// clamp to the border cells.
//
// A GridIndex is safe for concurrent reads between Resets.
type GridIndex struct {
	cell       float64
	minX, minY float64
	cols, rows int

	pts   []Point
	cells Buckets // the points, ascending ids within a cell
}

// Buckets is a list of items grouped by the cells of a GridIndex, in
// CSR layout: the items of cell c are IDs[Start[c]:Start[c+1]], in the
// order they were given. Grouping into the same Buckets again reuses
// both arrays.
type Buckets struct {
	Start []int32 // cell -> offset into IDs; len cells+1
	IDs   []int32 // item ids grouped by cell
}

// maxCellsFactor bounds the cell-grid size relative to the point count,
// so that a few far-apart points cannot force a huge (freshly
// allocated) grid. The cell size is doubled until the grid fits; range
// queries stay correct for any cell size.
const maxCellsFactor = 4

// Reset rebuilds the index over pts with the given cell size, reusing
// all internal storage. The pts slice is retained (not copied) and must
// not be mutated until the next Reset. cell must be positive and
// finite; it is doubled until the grid has at most 4·len(pts)+16
// cells (see CellSize).
func (g *GridIndex) Reset(pts []Point, cell float64) {
	if !(cell > 0) || math.IsInf(cell, 1) {
		panic("geom: GridIndex cell size must be positive and finite")
	}
	g.pts = pts
	g.cell = cell
	g.cols, g.rows = 1, 1
	if len(pts) > 0 {
		minX, minY, maxX, maxY := bounds(pts)
		if !finite(minX) || !finite(minY) || !finite(maxX) || !finite(maxY) {
			// A NaN/Inf coordinate would otherwise spin the
			// cell-doubling loop below forever; fail loudly at the
			// device with the bad position instead.
			panic("geom: GridIndex point coordinates must be finite")
		}
		g.minX, g.minY = minX, minY
		// Size the grid in float64: for tiny cells the cell counts
		// (and their product) can exceed the int range long before
		// the clamp below would trigger.
		limit := maxCellsFactor*len(pts) + 16
		for {
			cols := math.Floor((maxX-minX)/g.cell) + 1
			rows := math.Floor((maxY-minY)/g.cell) + 1
			if cols*rows <= float64(limit) {
				g.cols = int(cols)
				g.rows = int(rows)
				break
			}
			g.cell *= 2
		}
	}
	g.Group(&g.cells, pts, nil)
}

// Group buckets items by the cells of the last Reset into b: the items
// are pos[ix] for each ix in ixs, with id ix, or, when ixs is nil,
// every point of pos, with its position as id. Out-of-range items clamp
// to the border cells. It is a counting sort (count per cell,
// prefix-sum into offsets, fill), so a cell's items keep their input
// order, and with warm storage in b it allocates nothing.
func (g *GridIndex) Group(b *Buckets, pos []Point, ixs []int32) {
	cells := g.cols * g.rows
	n := len(ixs)
	if ixs == nil {
		n = len(pos)
	}
	if cap(b.Start) < cells+1 {
		b.Start = make([]int32, cells+1)
	}
	if cap(b.IDs) < n {
		b.IDs = make([]int32, n)
	}
	start, ids := b.Start[:cells+1], b.IDs[:n]
	clear(start)
	// One loop per case, not a closure per item (this is on phase B's
	// per-round path); each item's cell is computed twice, not stored.
	if ixs == nil {
		for _, p := range pos {
			start[g.CellOf(p)+1]++
		}
	} else {
		for _, ix := range ixs {
			start[g.CellOf(pos[ix])+1]++
		}
	}
	for c := 1; c <= cells; c++ {
		start[c] += start[c-1]
	}
	// The fill advances start[c] as cell c's cursor; shifting back one
	// cell then restores the offsets.
	if ixs == nil {
		for i, p := range pos {
			c := g.CellOf(p)
			ids[start[c]] = int32(i)
			start[c]++
		}
	} else {
		for _, ix := range ixs {
			c := g.CellOf(pos[ix])
			ids[start[c]] = ix
			start[c]++
		}
	}
	copy(start[1:], start[:cells])
	start[0] = 0
	b.Start, b.IDs = start, ids
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

// CellSize returns the side of the grid's square cells: the size
// given to Reset, doubled as often as the grid-size bound required.
func (g *GridIndex) CellSize() float64 { return g.cell }

// Dims returns the grid's size in cells; cell (cx, cy) has index
// cy*cols + cx.
func (g *GridIndex) Dims() (cols, rows int) { return g.cols, g.rows }

// Cell returns the ids of the indexed points in cell c, ascending
// (read-only, valid until the next Reset).
func (g *GridIndex) Cell(c int) []int32 { return g.cells.IDs[g.cells.Start[c]:g.cells.Start[c+1]] }

// CellOf returns the index of the grid cell containing p, in
// [0, cols*rows). Out-of-range points clamp to the border cells. The
// assignment is only valid until the next Reset.
func (g *GridIndex) CellOf(p Point) int {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// window returns the inclusive cell-coordinate rectangle overlapping
// the axis-aligned box [lo-r, hi+r], clamped to the grid. The result
// may be empty (cx0 > cx1 or cy0 > cy1) when the box lies entirely
// outside.
func (g *GridIndex) window(lo, hi Point, r float64) (cx0, cy0, cx1, cy1 int) {
	cx0 = int((lo.X - r - g.minX) / g.cell)
	cy0 = int((lo.Y - r - g.minY) / g.cell)
	cx1 = int((hi.X + r - g.minX) / g.cell)
	cy1 = int((hi.Y + r - g.minY) / g.cell)
	if cx0 < 0 {
		cx0 = 0
	}
	if cy0 < 0 {
		cy0 = 0
	}
	if cx1 >= g.cols {
		cx1 = g.cols - 1
	}
	if cy1 >= g.rows {
		cy1 = g.rows - 1
	}
	return
}

// Within appends to dst the ids of all indexed points q with
// m.Dist(p, q) <= r and returns the extended slice. Ids are ascending
// within each visited cell but not globally sorted. The destination is
// []int so that callers can mix the ids into int-typed adjacency lists.
func (g *GridIndex) Within(dst []int, p Point, r float64, m Metric) []int {
	if len(g.pts) == 0 {
		return dst
	}
	cx0, cy0, cx1, cy1 := g.window(p, p, r)
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.cols
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range g.Cell(row + cx) {
				if m.Within(p, g.pts[id], r) {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}

// GatherBox appends to dst the ids of every indexed point whose cell
// overlaps the axis-aligned box [lo-r, hi+r] and returns the extended
// slice. No distance predicate is applied: the result is a superset of
// the points within distance r (under L2 or LInf) of any point in the
// rectangle [lo, hi], grouped by cell rather than sorted. Because cells
// of one grid row are contiguous in the CSR layout, each row is one
// bulk append.
func (g *GridIndex) GatherBox(dst []int32, lo, hi Point, r float64) []int32 {
	if len(g.pts) == 0 {
		return dst
	}
	cx0, cy0, cx1, cy1 := g.window(lo, hi, r)
	if cx0 > cx1 || cy0 > cy1 {
		return dst // box entirely outside the grid
	}
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.cols
		dst = append(dst, g.cells.IDs[g.cells.Start[row+cx0]:g.cells.Start[row+cx1+1]]...)
	}
	return dst
}
