package topo

import (
	"testing"

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

// TestUnionFindAgainstBFS cross-checks union-find components against the
// existing BFS ComponentOf on random deployments with random dead sets.
func TestUnionFindAgainstBFS(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 20; trial++ {
		d := Uniform(60, 12, 3, rng)
		alive := make([]bool, d.N())
		for i := range alive {
			alive[i] = rng.Float64() > 0.25
		}
		u := d.LiveComponents(alive)
		for i := 0; i < d.N(); i++ {
			if !alive[i] {
				if u.SizeOf(i) != 1 {
					t.Fatalf("trial %d: dead node %d merged into a component", trial, i)
				}
				continue
			}
			comp := d.ComponentOf(i, alive)
			if got := u.SizeOf(i); got != len(comp) {
				t.Fatalf("trial %d node %d: union-find size %d, BFS size %d", trial, i, got, len(comp))
			}
			for _, j := range comp {
				if !u.Same(i, j) {
					t.Fatalf("trial %d: BFS says %d~%d, union-find disagrees", trial, i, j)
				}
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

// BenchmarkLiveComponentsCluster4096 times the connectivity pass that
// World.Summarize runs, on the densest shape the end-to-end benchmark
// has: 4096 devices on the onehop-cluster-8k square (5.5×5.5, R 4),
// nearly all within one hop of each other, so each query returns
// about 4000 ids. The deployment and its index are built outside the
// timer.
func BenchmarkLiveComponentsCluster4096(b *testing.B) {
	d := Uniform(4096, 5.5, 4, xrand.New(1))
	d.Index()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.LiveComponents(nil)
	}
}
