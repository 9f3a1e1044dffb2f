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
// within distance r of p" queries and cell-grouped box gathers. It
// serves both the fixed positions of a deployment and the
// transmissions of each simulated radio round: the cells are a uniform
// cols×rows grid anchored at the points' bounding box, and the buckets
// are stored in CSR layout (one ids array plus per-cell offsets), so
// Reset reuses all backing arrays and, after warm-up, rebuilding the
// index allocates nothing. Queries may use any radius; out-of-range
// points clamp to the border cells.
//
// A GridIndex is safe for concurrent reads between Resets.
type GridIndex struct {
	cell       float64
	minX, minY float64
	cols, rows int

	pts   []Point
	start []int32 // cell -> offset into ids; len cells+1
	ids   []int32 // point ids grouped by cell, ascending within a cell
}

// maxCellsFactor bounds the cell-grid size relative to the point count,
// so that a few far-apart points cannot force a huge (freshly
// allocated) grid. The cell size is doubled until the grid fits; range
// queries stay correct for any cell size.
const maxCellsFactor = 4

// Reset rebuilds the index over pts with the given cell size, reusing
// all internal storage. The pts slice is retained (not copied) and must
// not be mutated until the next Reset. cell must be positive and
// finite; it is grown as needed to bound the grid size.
func (g *GridIndex) Reset(pts []Point, cell float64) {
	if !(cell > 0) || math.IsInf(cell, 1) {
		panic("geom: GridIndex cell size must be positive and finite")
	}
	g.pts = pts
	g.cell = cell
	if len(pts) == 0 {
		g.cols, g.rows = 1, 1
		g.start = append(g.start[:0], 0, 0)
		g.ids = g.ids[:0]
		return
	}
	minX, minY, maxX, maxY := bounds(pts)
	if !finite(minX) || !finite(minY) || !finite(maxX) || !finite(maxY) {
		// A NaN/Inf coordinate would otherwise spin the cell-doubling
		// loop below forever; fail loudly at the device with the bad
		// position instead.
		panic("geom: GridIndex point coordinates must be finite")
	}
	g.minX, g.minY = minX, minY
	// Size the grid in float64: for tiny cells the cell counts (and
	// their product) can exceed the int range long before the clamp
	// below would trigger.
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
	cells := g.cols * g.rows

	// CSR build: count per cell, prefix-sum into offsets, then fill.
	// Filling in ascending point order keeps ids sorted within a cell.
	if cap(g.start) < cells+1 {
		g.start = make([]int32, cells+1)
	}
	start := g.start[:cells+1]
	for i := range start {
		start[i] = 0
	}
	for _, p := range pts {
		start[g.CellOf(p)+1]++
	}
	for c := 1; c <= cells; c++ {
		start[c] += start[c-1]
	}
	if cap(g.ids) < len(pts) {
		g.ids = make([]int32, len(pts))
	}
	ids := g.ids[:len(pts)]
	// cursor reuses the start offsets: fill advances start[c], then the
	// offsets are restored by shifting back one cell.
	for i, p := range pts {
		c := g.CellOf(p)
		ids[start[c]] = int32(i)
		start[c]++
	}
	for c := cells; c > 0; c-- {
		start[c] = start[c-1]
	}
	start[0] = 0
	g.start = start
	g.ids = ids
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

// Cells returns the number of cells in the current grid.
func (g *GridIndex) Cells() int { return g.cols * g.rows }

// CellOf returns the index of the grid cell containing p, in
// [0, Cells()). Out-of-range points clamp to the border cells. The
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
			c := row + cx
			for _, id := range g.ids[g.start[c]:g.start[c+1]] {
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
		dst = append(dst, g.ids[g.start[row+cx0]:g.start[row+cx1+1]]...)
	}
	return dst
}
