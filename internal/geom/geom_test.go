package geom

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMetricDist(t *testing.T) {
	tests := []struct {
		name string
		m    Metric
		p, q Point
		want float64
	}{
		{"linf-zero", LInf, Point{1, 2}, Point{1, 2}, 0},
		{"linf-axis", LInf, Point{0, 0}, Point{3, 0}, 3},
		{"linf-diag", LInf, Point{0, 0}, Point{3, 4}, 4},
		{"linf-neg", LInf, Point{-1, -1}, Point{2, 1}, 3},
		{"l2-zero", L2, Point{5, 5}, Point{5, 5}, 0},
		{"l2-axis", L2, Point{0, 0}, Point{0, 7}, 7},
		{"l2-345", L2, Point{0, 0}, Point{3, 4}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.m.Dist(tc.p, tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestMetricWithinMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := Point{rng.Float64() * 20, rng.Float64() * 20}
		q := Point{rng.Float64() * 20, rng.Float64() * 20}
		r := rng.Float64() * 10
		for _, m := range []Metric{LInf, L2} {
			if got, want := m.Within(p, q, r), m.Dist(p, q) <= r; got != want {
				t.Fatalf("metric %v: Within(%v,%v,%v)=%v but Dist=%v", m, p, q, r, got, m.Dist(p, q))
			}
		}
	}
}

func TestMetricString(t *testing.T) {
	if LInf.String() != "Linf" || L2.String() != "L2" {
		t.Errorf("unexpected metric strings: %q %q", LInf, L2)
	}
	if s := Metric(9).String(); s != "Metric(9)" {
		t.Errorf("unknown metric string = %q", s)
	}
}

func TestMetricSymmetryAndTriangle(t *testing.T) {
	// Metric axioms hold for both metrics (property-based).
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clampCoord(ax), clampCoord(ay)}
		b := Point{clampCoord(bx), clampCoord(by)}
		c := Point{clampCoord(cx), clampCoord(cy)}
		for _, m := range []Metric{LInf, L2} {
			if math.Abs(m.Dist(a, b)-m.Dist(b, a)) > 1e-9 {
				return false
			}
			if m.Dist(a, c) > m.Dist(a, b)+m.Dist(b, c)+1e-9 {
				return false
			}
			if m.Dist(a, a) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// clampCoord maps an arbitrary float into a sane coordinate range so that
// quick-generated extreme values (inf, huge) do not overflow the math.
func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestRect(t *testing.T) {
	r := Square(10)
	if r.Width() != 10 || r.Height() != 10 || r.Area() != 100 {
		t.Fatalf("Square(10) dims wrong: %+v", r)
	}
	if c := r.Center(); c != (Point{5, 5}) {
		t.Errorf("Center = %v, want (5,5)", c)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) || r.Contains(Point{10.01, 5}) {
		t.Error("Contains boundary behaviour wrong")
	}
	if got := r.Clamp(Point{-3, 11}); got != (Point{0, 10}) {
		t.Errorf("Clamp = %v, want (0,10)", got)
	}
	if got := r.Clamp(Point{4, 5}); got != (Point{4, 5}) {
		t.Errorf("Clamp of interior point moved: %v", got)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if p.Add(q) != (Point{4, 1}) {
		t.Error("Add wrong")
	}
	if p.Sub(q) != (Point{-2, 3}) {
		t.Error("Sub wrong")
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestIndexWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 30, rng.Float64() * 30}
		}
		cell := 0.5 + rng.Float64()*5
		var ix GridIndex
		ix.Reset(pts, cell)
		if ix.Len() != n {
			t.Fatalf("Len = %d, want %d", ix.Len(), n)
		}
		for q := 0; q < 10; q++ {
			p := Point{rng.Float64() * 30, rng.Float64() * 30}
			r := rng.Float64() * 8
			for _, m := range []Metric{LInf, L2} {
				got := ix.Within(nil, p, r, m)
				sort.Ints(got)
				var want []int
				for i, pt := range pts {
					if m.Within(p, pt, r) {
						want = append(want, i)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d: Within returned %d ids, want %d (r=%v m=%v)", trial, len(got), len(want), r, m)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: Within mismatch at %d: got %v want %v", trial, i, got, want)
					}
				}
			}
		}
	}
}

func TestIndexEmptyAndAt(t *testing.T) {
	var ix GridIndex
	ix.Reset(nil, 1)
	if got := ix.Within(nil, Point{0, 0}, 100, L2); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}
}

func TestIndexAppendsToDst(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}}
	var ix GridIndex
	ix.Reset(pts, 1)
	dst := []int{99}
	dst = ix.Within(dst, Point{0, 0}, 0.5, L2)
	if len(dst) != 2 || dst[0] != 99 {
		t.Errorf("Within did not append: %v", dst)
	}
}

func TestIndexBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reset with non-positive cell did not panic")
		}
	}()
	var ix GridIndex
	ix.Reset([]Point{{0, 0}}, 0)
}

func TestGridIndexWithinMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var g GridIndex
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(300)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 30, rng.Float64() * 30}
		}
		cell := 0.5 + rng.Float64()*5
		g.Reset(pts, cell)
		if g.Len() != n {
			t.Fatalf("Len = %d, want %d", g.Len(), n)
		}
		for q := 0; q < 10; q++ {
			p := Point{rng.Float64() * 30, rng.Float64() * 30}
			r := rng.Float64() * 8
			for _, m := range []Metric{LInf, L2} {
				got := g.Within(nil, p, r, m)
				sort.Ints(got)
				var want []int
				for i, pt := range pts {
					if m.Within(p, pt, r) {
						want = append(want, i)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d: GridIndex returned %d ids, want %d (r=%v m=%v)", trial, len(got), len(want), r, m)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: GridIndex mismatch at %d: got %v want %v", trial, i, got, want)
					}
				}
			}
		}
	}
}

// TestGridIndexResetReusesStorage pins that rebuilding the index, and
// regrouping an index list into warm Buckets, allocate nothing.
func TestGridIndexResetReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 40, rng.Float64() * 40}
	}
	ixs := make([]int32, 300)
	for k := range ixs {
		ixs[k] = int32(rng.Intn(len(pts)))
	}
	var g GridIndex
	var b Buckets
	g.Reset(pts, 3) // warm up the backing arrays
	g.Group(&b, pts, ixs)
	allocs := testing.AllocsPerRun(50, func() {
		g.Reset(pts, 3)
		g.Group(&b, pts, ixs)
	})
	if allocs != 0 {
		t.Errorf("warm Reset and Group allocated %v times per run, want 0", allocs)
	}
}

// groupOracle is Group by brute force: the items (ixs, or every point
// when ixs is nil) stably sorted by their clamped CellOf, and the
// offset of each cell's first item.
func groupOracle(g *GridIndex, pos []Point, ixs []int32) Buckets {
	if ixs == nil {
		for i := range pos {
			ixs = append(ixs, int32(i))
		}
	}
	ids := slices.Clone(ixs)
	slices.SortStableFunc(ids, func(a, b int32) int { return g.CellOf(pos[a]) - g.CellOf(pos[b]) })
	cols, rows := g.Dims()
	start := make([]int32, cols*rows+1)
	for c := range start {
		start[c] = int32(len(ids))
		for k, ix := range ids {
			if g.CellOf(pos[ix]) >= c {
				start[c] = int32(k)
				break
			}
		}
	}
	return Buckets{Start: start, IDs: ids}
}

// TestGridIndexGroupMatchesSort checks Group against the stable sort on
// every point, on index lists (unsorted, with repeats) into points
// spread past the grid on every side, and on an empty list, regrouping
// into one Buckets throughout.
func TestGridIndexGroupMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var g GridIndex
	var b Buckets
	for trial := 0; trial < 30; trial++ {
		pts := make([]Point, rng.Intn(200))
		for i := range pts {
			pts[i] = Point{rng.Float64() * 30, rng.Float64() * 30}
		}
		g.Reset(pts, 0.5+rng.Float64()*5)
		// Listeners of a round: a superset of the map, so some clamp.
		pos := make([]Point, 1+rng.Intn(300))
		for i := range pos {
			pos[i] = Point{rng.Float64()*50 - 10, rng.Float64()*50 - 10}
		}
		ixs := make([]int32, rng.Intn(2*len(pos)))
		for k := range ixs {
			ixs[k] = int32(rng.Intn(len(pos)))
		}
		for _, c := range []struct {
			name string
			pos  []Point
			ixs  []int32
		}{
			{"every point", pts, nil},
			{"every outside point", pos, nil},
			{"index list", pos, ixs},
			{"empty list", pos, []int32{}},
		} {
			g.Group(&b, c.pos, c.ixs)
			want := groupOracle(&g, c.pos, c.ixs)
			if !slices.Equal(b.Start, want.Start) || !slices.Equal(b.IDs, want.IDs) {
				t.Fatalf("trial %d, %s: Group = %v / %v, want %v / %v", trial, c.name, b.Start, b.IDs, want.Start, want.IDs)
			}
		}
		// The index's own cells are the grouping of its points.
		want := groupOracle(&g, pts, nil)
		for c := range len(want.Start) - 1 {
			if !slices.Equal(g.Cell(c), want.IDs[want.Start[c]:want.Start[c+1]]) {
				t.Fatalf("trial %d: Cell(%d) = %v, want %v", trial, c, g.Cell(c), want.IDs[want.Start[c]:want.Start[c+1]])
			}
		}
	}
}

func TestGridIndexCellClamp(t *testing.T) {
	// A tiny cell over far-apart points must not blow up the grid; the
	// cell size is grown until the grid is proportional to the points.
	pts := []Point{{0, 0}, {1e6, 1e6}}
	var g GridIndex
	// 1e-12 makes the unclamped cell-count product overflow int; the
	// clamp must engage before any int conversion.
	for _, cell := range []float64{1e-3, 1e-12} {
		g.Reset(pts, cell)
		if cells := g.cols * g.rows; cells <= 0 || cells > maxCellsFactor*len(pts)+16 {
			t.Fatalf("cell %v: grid has %d cells for %d points", cell, cells, len(pts))
		}
		got := g.Within(nil, Point{0, 0}, 1, L2)
		if len(got) != 1 || got[0] != 0 {
			t.Errorf("cell %v: clamped-grid query = %v, want [0]", cell, got)
		}
	}
}

func TestGridIndexEmptyAndBadCell(t *testing.T) {
	var g GridIndex
	g.Reset(nil, 1)
	if got := g.Within(nil, Point{0, 0}, 100, L2); len(got) != 0 {
		t.Errorf("empty grid index returned %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset with non-positive cell did not panic")
		}
	}()
	g.Reset([]Point{{0, 0}}, 0)
}

func TestGridIndexNonFinitePointPanics(t *testing.T) {
	// A NaN/Inf coordinate must fail loudly, not hang the grid-sizing
	// loop.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset with coordinate %v did not panic", bad)
				}
			}()
			var g GridIndex
			g.Reset([]Point{{0, 0}, {bad, 1}}, 1)
		}()
	}
}

func BenchmarkIndexWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 4000)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 60, rng.Float64() * 60}
	}
	var ix GridIndex
	ix.Reset(pts, 4)
	buf := make([]int, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.Within(buf[:0], pts[i%len(pts)], 4, L2)
	}
}
