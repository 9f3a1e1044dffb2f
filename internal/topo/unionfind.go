package topo

// This file tracks connectivity of the live communication graph with a
// union-find (disjoint-set) structure, in the spirit of the
// Alistarh-et-al union-find line of work the repo's scale roadmap
// leans on: path halving plus union by size, so component queries over
// a deployment are near-linear. Experiments use it to report delivery
// per surviving component instead of global means that hide partitions
// (a crashed or churning cut vertex can split the deployment; nodes in
// a component the source cannot reach are not "failures to deliver" so
// much as "unreachable", and the two must not be averaged together).

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
func (d *Deployment) LiveComponents(alive []bool) *UnionFind {
	u := NewUnionFind(d.N())
	var buf []int
	for i := 0; i < d.N(); i++ {
		if alive != nil && !alive[i] {
			continue
		}
		buf = d.WithinRange(buf[:0], d.Pos[i], d.R)
		for _, j := range buf {
			// Each edge is seen from both ends; Union is idempotent, so
			// filtering j > i is an optimization, not a correctness need.
			if j > i && (alive == nil || alive[j]) {
				u.Union(i, j)
			}
		}
	}
	return u
}
