package topo

import (
	"math"
	"slices"
	"testing"

	"authradio/internal/geom"
	"authradio/internal/xrand"
)

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(6)
	if u.Count() != 6 {
		t.Fatalf("fresh count = %d, want 6", u.Count())
	}
	if !u.Union(0, 1) || !u.Union(2, 3) || !u.Union(1, 2) {
		t.Fatal("merging disjoint sets reported no merge")
	}
	if u.Union(0, 3) {
		t.Fatal("merging an already-joined pair reported a merge")
	}
	if u.Count() != 3 {
		t.Fatalf("count = %d, want 3", u.Count())
	}
	if !u.Same(0, 3) || u.Same(0, 4) {
		t.Fatal("Same wrong")
	}
	if u.SizeOf(2) != 4 || u.SizeOf(4) != 1 {
		t.Fatalf("SizeOf = %d/%d, want 4/1", u.SizeOf(2), u.SizeOf(4))
	}
}

// TestUnionFindAgainstBFS cross-checks union-find components against a
// breadth-first search on random deployments with random dead sets:
// HopDistances over the live devices alone reaches exactly the
// device's component.
func TestUnionFindAgainstBFS(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 20; trial++ {
		d := Uniform(60, 12, 3, rng)
		alive := make([]bool, d.N())
		live := &Deployment{Area: d.Area, R: d.R, Metric: d.Metric}
		var ids []int // live index -> device id
		for i := range alive {
			alive[i] = rng.Float64() > 0.25
			if alive[i] {
				live.Pos = append(live.Pos, d.Pos[i])
				ids = append(ids, i)
			}
		}
		u := d.LiveComponents(alive)
		for i := 0; i < d.N(); i++ {
			if !alive[i] && u.SizeOf(i) != 1 {
				t.Fatalf("trial %d: dead node %d merged into a component", trial, i)
			}
		}
		for k, i := range ids {
			comp := 0
			for kj, hops := range live.HopDistances(k) {
				if hops < 0 {
					continue
				}
				comp++
				if !u.Same(i, ids[kj]) {
					t.Fatalf("trial %d: BFS says %d~%d, union-find disagrees", trial, i, ids[kj])
				}
			}
			if got := u.SizeOf(i); got != comp {
				t.Fatalf("trial %d node %d: union-find size %d, BFS size %d", trial, i, got, comp)
			}
		}
	}
}

func TestLiveComponentsNilAlive(t *testing.T) {
	d := Grid(4, 4, 1)
	u := d.LiveComponents(nil)
	if u.Count() != 1 {
		t.Fatalf("connected grid has %d components, want 1", u.Count())
	}
	if u.SizeOf(0) != 16 {
		t.Fatalf("component size %d, want 16", u.SizeOf(0))
	}
}

// TestLiveComponentsPartition pins the partition case the metrics exist
// for: killing a cut column of a grid splits it into two components.
func TestLiveComponentsPartition(t *testing.T) {
	d := Grid(5, 3, 1) // rows y=0..2, columns x=0..4, L-inf range 1
	alive := make([]bool, d.N())
	for i := range alive {
		alive[i] = true
	}
	for y := 0; y < 3; y++ {
		alive[y*5+2] = false // kill column x=2
	}
	u := d.LiveComponents(alive)
	// 2 live components + 3 dead singletons.
	if u.Count() != 5 {
		t.Fatalf("count = %d, want 5", u.Count())
	}
	if u.Same(0, 4) {
		t.Fatal("partitioned halves still connected")
	}
	if u.SizeOf(0) != 6 || u.SizeOf(4) != 6 {
		t.Fatalf("half sizes %d/%d, want 6/6", u.SizeOf(0), u.SizeOf(4))
	}
}

// scanComponents is the reference LiveComponents: one range query per
// live device and a union for every live neighbor pair, so it
// enumerates the whole neighbor graph.
func scanComponents(d *Deployment, alive []bool) *UnionFind {
	u := NewUnionFind(d.N())
	var buf []int
	for i := 0; i < d.N(); i++ {
		if alive != nil && !alive[i] {
			continue
		}
		buf = d.WithinRange(buf[:0], d.Pos[i], d.R)
		for _, j := range buf {
			if j > i && (alive == nil || alive[j]) {
				u.Union(i, j)
			}
		}
	}
	return u
}

// partitionLabels names each element's set by its smallest member, a
// label that does not depend on which edges or union order built the
// sets.
func partitionLabels(u *UnionFind, n int) []int {
	first := make([]int, n)
	for i := range first {
		first[i] = -1
	}
	labels := make([]int, n)
	for i := range labels {
		r := u.Find(i)
		if first[r] < 0 {
			first[r] = i
		}
		labels[i] = first[r]
	}
	return labels
}

// widened reports whether the pass's index over d widens its cells
// past R/2.
func widened(d *Deployment) bool {
	var g geom.GridIndex
	g.Reset(d.Pos, d.R/2)
	return g.CellSize() != d.R/2
}

// TestLiveComponentsMatchesScan checks the cell pass against the
// neighbor scan, set by set, on the deployments its exactness argument
// has to cover: uniform maps under both metrics (the sparser ones with
// widened cells), tight clusters on a large side (sparse overall, so
// their cells widen), integer and half-integer L∞ grids and a
// decimal-spaced one (many pairs at exactly R, or at R up to
// rounding), pairs at R that the floor puts three half-range cells
// apart, a map spanning 2^41 half-ranges and two clusters 10^4·R apart
// (widened cells), one device, and all devices dead; each with every
// device alive (alive nil) or 0-50% dead. Shapes that must run in one
// cell mode check that they do.
func TestLiveComponentsMatchesScan(t *testing.T) {
	rng := xrand.New(24)
	type shape struct {
		name string
		make func() *Deployment
	}
	// mustWiden holds the shapes whose cells must (true) or must not
	// (false) widen on every trial.
	mustWiden := map[string]bool{
		"pair at R three cells apart, half-range cells": false,
		"two clusters 1e4·R apart":                      true,
	}
	shapes := []shape{
		{"uniform L2", func() *Deployment { return Uniform(50+rng.Intn(500), 5+30*rng.Float64(), 1+3*rng.Float64(), rng) }},
		{"uniform LInf", func() *Deployment {
			d := Uniform(50+rng.Intn(500), 5+30*rng.Float64(), 1+3*rng.Float64(), rng)
			d.Metric = geom.LInf
			return d
		}},
		{"clustered", func() *Deployment {
			return Clustered(100+rng.Intn(500), 1+rng.Intn(6), 200+800*rng.Float64(), 0.3+rng.Float64(), 1+rng.Float64(), rng)
		}},
		{"grid integer R", func() *Deployment { return Grid(4+rng.Intn(20), 4+rng.Intn(20), float64(1+rng.Intn(3))) }},
		{"grid half-integer R", func() *Deployment { return Grid(4+rng.Intn(20), 4+rng.Intn(20), 1.5+float64(rng.Intn(3))) }},
		{"grid decimal spacing", func() *Deployment {
			// 0.1 is inexact in binary, so pairs sit at R up to rounding.
			w := 4 + rng.Intn(20)
			d := Grid(w, w, 0.1*float64(1+rng.Intn(4)))
			for i := range d.Pos {
				d.Pos[i].X *= 0.1
				d.Pos[i].Y *= 0.1
			}
			d.Area = geom.Square(float64(w-1) * 0.1)
			return d
		}},
		{"wide cells", func() *Deployment { return Clustered(100+rng.Intn(300), 2+rng.Intn(3), 1<<40, 1+rng.Float64(), 1, rng) }},
		{"pair at R three cells apart", func() *Deployment {
			// x/(r/2) rounds to just below 7 and (x+r)/(r/2) to just
			// above 9: the pair is in range but three cells apart.
			r := 2.6
			x := 7 * (r / 2)
			return &Deployment{
				Area:   geom.Rect{MaxX: x + r, MaxY: x + r},
				Pos:    []geom.Point{{}, {X: x}, {X: x + r}, {Y: x}, {Y: x + r}},
				R:      r,
				Metric: geom.Metric(rng.Intn(2)),
			}
		}},
		{"pair at R three cells apart, half-range cells", func() *Deployment {
			// The shape above with 17 devices on the origin instead of
			// one, out of everyone else's range: 21 devices keep the
			// 10×10 grid of half-range cells (4·21+16 = 100).
			r := 2.6
			x := 7 * (r / 2)
			d := &Deployment{
				Area:   geom.Rect{MaxX: x + r, MaxY: x + r},
				Pos:    []geom.Point{{X: x}, {X: x + r}, {Y: x}, {Y: x + r}},
				R:      r,
				Metric: geom.Metric(rng.Intn(2)),
			}
			for range 17 {
				d.Pos = append(d.Pos, geom.Point{})
			}
			return d
		}},
		{"two clusters 1e4·R apart", func() *Deployment {
			// 64 devices span 2·10^4 half-range cells along each
			// axis, past the index's 4n+16 cells. Each cluster spans
			// 4R, so it may split.
			r := 1 + rng.Float64()
			far := 1e4 * r
			d := &Deployment{Area: geom.Square(far + 4*r), R: r, Metric: geom.Metric(rng.Intn(2))}
			for i := range 64 {
				c := float64(i%2) * far
				d.Pos = append(d.Pos, geom.Point{X: c + 4*r*rng.Float64(), Y: c + 4*r*rng.Float64()})
			}
			return d
		}},
		{"one device", func() *Deployment { return Uniform(1, 10, 2, rng) }},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 25; trial++ {
			d := sh.make()
			if want, ok := mustWiden[sh.name]; ok && widened(d) != want {
				t.Fatalf("%s trial %d: widened cells %v, want %v", sh.name, trial, !want, want)
			}
			var alive []bool
			switch trial % 3 {
			case 1: // 0-50% dead
				alive = make([]bool, d.N())
				dead := 0.5 * rng.Float64()
				for i := range alive {
					alive[i] = !rng.Bool(dead)
				}
			case 2: // all dead
				alive = make([]bool, d.N())
			}
			got, want := d.LiveComponents(alive), scanComponents(d, alive)
			if got.Count() != want.Count() {
				t.Fatalf("%s trial %d: %d components, scan has %d", sh.name, trial, got.Count(), want.Count())
			}
			if g, w := partitionLabels(got, d.N()), partitionLabels(want, d.N()); !slices.Equal(g, w) {
				i := 0
				for g[i] == w[i] {
					i++
				}
				t.Fatalf("%s trial %d: device %d in the set of %d, scan puts it with %d", sh.name, trial, i, g[i], w[i])
			}
		}
	}
}

// BenchmarkLiveComponentsCluster4096 times the connectivity pass that
// World.Summarize runs, on the densest shape the end-to-end benchmark
// has: 4096 devices on the onehop-cluster-8k square (5.5×5.5, R 4),
// nearly all within one hop of each other. They fill nine half-range
// cells, so the pass is the sort and one union per device. The
// deployment is built outside the timer.
func BenchmarkLiveComponentsCluster4096(b *testing.B) {
	d := Uniform(4096, 5.5, 4, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.LiveComponents(nil)
	}
}

// BenchmarkLiveComponentsUniform16384 times the same pass on nw-16k's
// shape: 16384 uniform devices at the paper's density (1.5 per unit²,
// side ≈104.5, R 4), about 6 per half-range cell, so besides the sort
// and the in-cell unions the pass visits 24 neighbor cells per cell.
// The deployment is built outside the timer.
func BenchmarkLiveComponentsUniform16384(b *testing.B) {
	d := Uniform(16384, math.Sqrt(16384/1.5), 4, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.LiveComponents(nil)
	}
}
