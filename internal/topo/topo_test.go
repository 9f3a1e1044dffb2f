package topo

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"authradio/internal/geom"
	"authradio/internal/xrand"
)

func TestGridBasics(t *testing.T) {
	d := Grid(5, 4, 1)
	if d.N() != 20 {
		t.Fatalf("N = %d, want 20", d.N())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Metric != geom.LInf {
		t.Error("grid should use Linf metric")
	}
	// Interior node (2,2) = id 2*5+2 = 12 has 8 L-inf neighbors at R=1.
	nbrs := d.Neighbors(nil, 12)
	if len(nbrs) != 8 {
		t.Errorf("interior grid node has %d neighbors, want 8", len(nbrs))
	}
	// Corner node 0 has 3.
	if n := len(d.Neighbors(nil, 0)); n != 3 {
		t.Errorf("corner grid node has %d neighbors, want 3", n)
	}
}

func TestGridNeighborCountR2(t *testing.T) {
	d := Grid(9, 9, 2)
	// Center node (4,4) of a 9x9 grid with R=2: (2R+1)^2 - 1 = 24.
	center := 4*9 + 4
	if n := len(d.Neighbors(nil, center)); n != 24 {
		t.Errorf("R=2 interior neighbors = %d, want 24", n)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	rng := xrand.New(5)
	d := Uniform(150, 20, 4, rng)
	tbl := d.NeighborTable()
	for i, nbrs := range tbl {
		for _, j := range nbrs {
			found := false
			for _, k := range tbl[j] {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric adjacency: %d->%d but not back", i, j)
			}
		}
	}
}

func TestNeighborsExcludesSelfAndSorted(t *testing.T) {
	d := Uniform(100, 15, 3, xrand.New(9))
	for i := 0; i < d.N(); i++ {
		nbrs := d.Neighbors(nil, i)
		prev := -1
		for _, j := range nbrs {
			if j == i {
				t.Fatalf("node %d is its own neighbor", i)
			}
			if j <= prev {
				t.Fatalf("neighbors of %d not strictly sorted: %v", i, nbrs)
			}
			prev = j
		}
	}
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		d := Uniform(60, 12, 3, rng)
		for i := 0; i < d.N(); i++ {
			got := d.Neighbors(nil, i)
			want := 0
			for j := 0; j < d.N(); j++ {
				if j != i && d.Metric.Within(d.Pos[i], d.Pos[j], d.R) {
					want++
				}
			}
			if len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestUniformInsideAreaAndDensity(t *testing.T) {
	d := Uniform(800, 24, 4, xrand.New(1))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper's jamming setup: 800 devices on 24x24 is density ~1.39.
	if dens := d.Density(); math.Abs(dens-800.0/576.0) > 1e-9 {
		t.Errorf("density = %v", dens)
	}
}

func TestClusteredProperties(t *testing.T) {
	d := Clustered(1200, 10, 30, 2.5, 4, xrand.New(3))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 1200 {
		t.Fatalf("N = %d", d.N())
	}
	// Clustering should produce higher local density variance than
	// uniform: compare mean neighbor counts, clustered should exceed
	// uniform at equal global density.
	u := Uniform(1200, 30, 4, xrand.New(3))
	if d.AvgNeighborCount() <= u.AvgNeighborCount() {
		t.Errorf("clustered avg neighbors %v not greater than uniform %v",
			d.AvgNeighborCount(), u.AvgNeighborCount())
	}
}

func TestClusteredPanicsOnZeroClusters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero clusters")
		}
	}()
	Clustered(10, 0, 10, 1, 2, xrand.New(1))
}

func TestCenterNode(t *testing.T) {
	d := Grid(5, 5, 1)
	// Center of [0,4]^2 is (2,2) -> id 12.
	if c := d.CenterNode(); c != 12 {
		t.Errorf("CenterNode = %d, want 12", c)
	}
}

func TestComponentAndConnectivity(t *testing.T) {
	d := Grid(4, 4, 1)
	if u := d.LiveComponents(nil); u.Count() != 1 || u.SizeOf(0) != 16 {
		t.Fatalf("full grid: %d components, device 0's of size %d, want one of 16", u.Count(), u.SizeOf(0))
	}
	// Deactivate a full column (x=1 with R=1 Linf still bridges
	// diagonally, so cut two columns x=1,x=2).
	active := make([]bool, 16)
	for i := range active {
		active[i] = true
	}
	for y := 0; y < 4; y++ {
		active[y*4+1] = false
		active[y*4+2] = false
	}
	u := d.LiveComponents(active)
	if u.Same(0, 3) {
		t.Error("cut grid should be disconnected")
	}
	if got := u.SizeOf(0); got != 4 {
		t.Errorf("left column component size %d, want 4", got)
	}
	if got := u.SizeOf(1); got != 1 {
		t.Errorf("inactive node should be a singleton, got a set of %d", got)
	}
}

func TestHopDistances(t *testing.T) {
	d := Grid(10, 1, 1) // a line of 10 nodes
	dist := d.HopDistances(0)
	for i, v := range dist {
		if v != i {
			t.Fatalf("hop dist to %d = %d", i, v)
		}
	}
	if ecc := d.Eccentricity(0); ecc != 9 {
		t.Errorf("eccentricity = %d, want 9", ecc)
	}
}

func TestHopDistanceUnreachable(t *testing.T) {
	d := &Deployment{
		Area:   geom.Square(100),
		Pos:    []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 50}},
		R:      1,
		Metric: geom.L2,
	}
	dist := d.HopDistances(0)
	if dist[1] != -1 {
		t.Errorf("unreachable node has dist %d, want -1", dist[1])
	}
}

func TestValidateErrors(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	one := []geom.Point{{X: 1, Y: 1}}
	for _, c := range []struct {
		name string
		area geom.Rect
		pos  []geom.Point
		r    float64
	}{
		{"R=0", geom.Square(10), one, 0},
		{"R=NaN", geom.Square(10), one, nan},
		{"R=+Inf", geom.Square(10), one, inf},
		{"R=-Inf", geom.Square(10), one, -inf},
		{"empty deployment", geom.Square(10), nil, 2},
		{"out-of-area node", geom.Square(10), []geom.Point{{X: 11, Y: 1}}, 2},
		{"NaN coordinate", geom.Square(10), []geom.Point{{X: nan, Y: 1}}, 2},
		{"infinite coordinate in an infinite area", geom.Square(inf), []geom.Point{{X: 1, Y: inf}}, 2},
		{"-Inf coordinate", geom.Rect{MinX: -inf, MaxX: 10, MaxY: 10}, []geom.Point{{X: -inf, Y: 1}}, 2},
	} {
		d := &Deployment{Area: c.area, Pos: c.pos, R: c.r, Metric: geom.L2}
		if err := d.Validate(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestAvgNeighborCountFig6Setup(t *testing.T) {
	// Paper: 600 nodes on 20x20 with R=4 -> "approximately 80
	// neighbors, in expectation". Expected = density*pi*R^2 - 1 ~ 74
	// ignoring edges; accept a broad band around the paper's claim.
	d := Uniform(600, 20, 4, xrand.New(11))
	avg := d.AvgNeighborCount()
	if avg < 40 || avg > 90 {
		t.Errorf("fig6 average neighbor count = %v, expected near paper's ~80 (minus edge effects)", avg)
	}
}

func TestWithinRange(t *testing.T) {
	d := Grid(3, 3, 1)
	ids := d.WithinRange(nil, geom.Point{X: 1, Y: 1}, 0.5)
	if len(ids) != 1 || ids[0] != 4 {
		t.Errorf("WithinRange center 0.5 = %v, want [4]", ids)
	}
}

// TestNeighborsAppendsToDst checks that both queries append: the
// caller's prefix stays first and untouched, and only the appended ids
// are the answer.
func TestNeighborsAppendsToDst(t *testing.T) {
	d := Grid(5, 5, 1)
	got := d.Neighbors([]int{99}, 12)
	want := []int{99, 6, 7, 8, 11, 13, 16, 17, 18}
	if !slices.Equal(got, want) {
		t.Errorf("Neighbors([99], 12) = %v, want %v", got, want)
	}
	got = d.WithinRange([]int{99}, d.Pos[12], d.R)
	if len(got) != 10 || got[0] != 99 {
		t.Fatalf("WithinRange([99], ...) = %v, want 99 then 9 ids", got)
	}
	ids := slices.Sorted(slices.Values(got[1:]))
	if want := []int{6, 7, 8, 11, 12, 13, 16, 17, 18}; !slices.Equal(ids, want) {
		t.Errorf("WithinRange appended %v, want the ids %v", got[1:], want)
	}
}

// TestDeploymentIndexConcurrentFirstUse builds the lazy index from two
// goroutines at once, as two worlds built from one fresh deployment do;
// run under -race it catches an unsynchronised build.
func TestDeploymentIndexConcurrentFirstUse(t *testing.T) {
	d := Uniform(500, 20, 4, xrand.New(4))
	want := Uniform(500, 20, 4, xrand.New(4)).NeighborTable()
	var wg sync.WaitGroup
	got := make([][]int, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = d.Neighbors(nil, g)
		}()
	}
	wg.Wait()
	for g, nbrs := range got {
		if !slices.Equal(nbrs, want[g]) {
			t.Errorf("goroutine %d: Neighbors = %v, want %v", g, nbrs, want[g])
		}
	}
}

func BenchmarkNeighborTable4000(b *testing.B) {
	d := Uniform(4000, 60, 4, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.NeighborTable()
	}
}

// BenchmarkNeighborTableBuild4096 measures the full build cost at 4096+
// devices — spatial index construction included — which is what the
// experiment harness pays per fresh deployment.
func BenchmarkNeighborTableBuild4096(b *testing.B) {
	pos := Uniform(4096, 64, 4, xrand.New(1)).Pos
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &Deployment{Area: geom.Square(64), Pos: pos, R: 4, Metric: geom.L2}
		_ = d.NeighborTable()
	}
}

// TestFingerprintContentIdentity checks the deployment fingerprint is
// a pure function of geometry: equal-but-distinct deployments agree,
// and every geometric ingredient (positions, count, range, metric,
// area) moves it.
func TestFingerprintContentIdentity(t *testing.T) {
	base := func() *Deployment { return Uniform(40, 12, 3, xrand.New(7)) }
	a, b := base(), base()
	if a == b {
		t.Fatal("test needs distinct objects")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal deployments fingerprint differently")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}

	differs := func(name string, d *Deployment) {
		t.Helper()
		if d.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: fingerprint collision with base", name)
		}
	}
	differs("different seed", Uniform(40, 12, 3, xrand.New(8)))
	differs("different count", Uniform(41, 12, 3, xrand.New(7)))
	r := base()
	r.R = 4
	differs("different range", r)
	m := base()
	m.Metric = geom.LInf
	differs("different metric", m)
	ar := base()
	ar.Area.MaxX++
	differs("different area", ar)
	p := base()
	p.Pos[13].X += 1e-9
	differs("perturbed position", p)
}

// TestFingerprintConcurrent hammers the lazy memoization from many
// goroutines; all observers must agree (the memo is a sync.Once).
func TestFingerprintConcurrent(t *testing.T) {
	d := Uniform(200, 12, 3, xrand.New(3))
	want := Uniform(200, 12, 3, xrand.New(3)).Fingerprint()
	got := make(chan uint64, 16)
	for i := 0; i < 16; i++ {
		go func() { got <- d.Fingerprint() }()
	}
	for i := 0; i < 16; i++ {
		if fp := <-got; fp != want {
			t.Fatalf("concurrent fingerprint %#x, want %#x", fp, want)
		}
	}
}
