// Package topo builds and analyses device deployments: the analytical
// grid topology of the paper's proofs, and the uniform-random and
// clustered deployments of its simulation section.
//
// Neighborhoods come from one spatial index per deployment (Index, a
// geom.GridIndex built on first use). WithinRange is the one range
// query: it returns ids unordered, grouped by index cell, which is what
// set-like callers (schedule colouring) want. Neighbors builds on it
// and sorts, excluding the device itself. LiveComponents runs no range
// query: it joins devices through a second GridIndex, of half-range
// cells.
package topo

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"authradio/internal/geom"
	"authradio/internal/xrand"
)

// Deployment is a fixed set of device positions inside a map rectangle,
// together with the broadcast range R and the metric under which
// neighborhoods are defined.
//
// Paper, Section 3: "Let R be the communication radius. We define a
// neighborhood of a node v to be the area within distance R of v."
type Deployment struct {
	Area   geom.Rect
	Pos    []geom.Point
	R      float64
	Metric geom.Metric

	indexOnce sync.Once
	index     geom.GridIndex

	fpOnce sync.Once
	fp     uint64

	centerOnce sync.Once
	center     int
}

// Validate checks structural invariants and returns a descriptive error
// for the first violation found.
func (d *Deployment) Validate() error {
	if !(d.R > 0) || math.IsInf(d.R, 1) {
		return fmt.Errorf("topo: range R=%v is not positive and finite", d.R)
	}
	if len(d.Pos) == 0 {
		return fmt.Errorf("topo: empty deployment")
	}
	for i, p := range d.Pos {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("topo: node %d at non-finite position %v", i, p)
		}
		if !d.Area.Contains(p) {
			return fmt.Errorf("topo: node %d at %v outside area %+v", i, p, d.Area)
		}
	}
	return nil
}

// N returns the number of devices.
func (d *Deployment) N() int { return len(d.Pos) }

// Density returns the number of devices per unit area, the quantity the
// paper sweeps in Figures 5 and 7 ("We define the density as the total
// number of nodes divided by the area of the map").
func (d *Deployment) Density() float64 { return float64(len(d.Pos)) / d.Area.Area() }

// Index returns the spatial index over the positions, built on first
// use with cell size R. Building it is two array allocations even for
// many-thousand-device deployments. The deployment must not be mutated
// after the first call. Safe for concurrent use.
func (d *Deployment) Index() *geom.GridIndex {
	d.indexOnce.Do(func() {
		cell := d.R
		if cell <= 0 {
			cell = 1
		}
		d.index.Reset(d.Pos, cell)
	})
	return &d.index
}

// Fingerprint returns a 64-bit content hash of everything that
// determines the deployment's geometry: device count and positions,
// range, metric, and area. Two deployments with equal content hash
// equal, so caches keyed on the fingerprint (the schedule cache in
// internal/core) treat equal-but-distinct deployment objects as one.
// The hash is memoized; like Index, the deployment must not be mutated
// after the first call. Safe for concurrent use.
func (d *Deployment) Fingerprint() uint64 {
	d.fpOnce.Do(func() {
		words := make([]uint64, 0, 2*len(d.Pos)+8)
		words = append(words,
			uint64(len(d.Pos)),
			math.Float64bits(d.R),
			uint64(d.Metric),
			math.Float64bits(d.Area.MinX), math.Float64bits(d.Area.MinY),
			math.Float64bits(d.Area.MaxX), math.Float64bits(d.Area.MaxY),
		)
		for _, p := range d.Pos {
			words = append(words, math.Float64bits(p.X), math.Float64bits(p.Y))
		}
		d.fp = xrand.Hash64(words...)
	})
	return d.fp
}

// Neighbors appends to dst the ids of all devices within range R of
// device i, excluding i itself, in ascending order, and returns the
// extended slice.
func (d *Deployment) Neighbors(dst []int, i int) []int {
	start := len(dst)
	dst = d.WithinRange(dst, d.Pos[i], d.R)
	out := dst[:start]
	for _, id := range dst[start:] {
		if id != i {
			out = append(out, id)
		}
	}
	slices.Sort(out[start:])
	return out
}

// WithinRange appends to dst all device ids within distance r of p and
// returns the extended slice. The ids arrive grouped by index cell, not
// sorted: callers that treat the result as a set (conflict-graph
// colouring) pay no per-query sort.
func (d *Deployment) WithinRange(dst []int, p geom.Point, r float64) []int {
	return d.Index().Within(dst, p, r, d.Metric)
}

// NeighborTable precomputes the full adjacency lists, sorted by id.
func (d *Deployment) NeighborTable() [][]int {
	tbl := make([][]int, len(d.Pos))
	for i := range d.Pos {
		tbl[i] = d.Neighbors(nil, i)
	}
	return tbl
}

// Grid returns the analytical-model deployment: devices at every integer
// grid point of a w x h lattice (w*h devices), with L-infinity range R.
//
// Paper, Section 3: "a two-dimensional grid where nodes are placed at
// every grid point", analysed in the L-infinity norm.
func Grid(w, h int, r float64) *Deployment {
	pos := make([]geom.Point, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pos = append(pos, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return &Deployment{
		Area:   geom.Rect{MinX: 0, MinY: 0, MaxX: float64(w - 1), MaxY: float64(h - 1)},
		Pos:    pos,
		R:      r,
		Metric: geom.LInf,
	}
}

// Uniform returns n devices placed uniformly at random on a side x side
// map with Euclidean range R, the deployment used by most of the paper's
// experiments ("Devices are deployed at random in a two-dimensional
// plane").
func Uniform(n int, side, r float64, rng *xrand.Rand) *Deployment {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return &Deployment{Area: geom.Square(side), Pos: pos, R: r, Metric: geom.L2}
}

// Clustered returns n devices grouped around numClusters random centers,
// spread with a normal distribution of the given standard deviation and
// clamped to the map.
//
// Paper, Section 6.2: "we choose at random a fixed set of cluster
// centers; each device is randomly assigned to a cluster, and within a
// cluster, devices are spread according to a normal distribution."
func Clustered(n, numClusters int, side, sigma, r float64, rng *xrand.Rand) *Deployment {
	if numClusters <= 0 {
		panic("topo: numClusters must be positive")
	}
	centers := make([]geom.Point, numClusters)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	area := geom.Square(side)
	pos := make([]geom.Point, n)
	for i := range pos {
		c := centers[rng.Intn(numClusters)]
		p := geom.Point{
			X: rng.Normal(c.X, sigma),
			Y: rng.Normal(c.Y, sigma),
		}
		pos[i] = area.Clamp(p)
	}
	return &Deployment{Area: area, Pos: pos, R: r, Metric: geom.L2}
}

// CenterNode returns the id of the device closest to the center of the
// map; the paper's experiments start every broadcast from "a single
// honest source node, located at the center of the network". The
// result is memoized: matrix-style sweeps build every world of a D×P
// grid against one cached deployment, so the linear scan runs once per
// deployment instead of once per world. Like Index and Fingerprint,
// the deployment must not be mutated after the first call; safe for
// concurrent use.
func (d *Deployment) CenterNode() int {
	d.centerOnce.Do(func() {
		c := d.Area.Center()
		best, bestDist := 0, d.Metric.Dist(d.Pos[0], c)
		for i := 1; i < len(d.Pos); i++ {
			if dist := d.Metric.Dist(d.Pos[i], c); dist < bestDist {
				best, bestDist = i, dist
			}
		}
		d.center = best
	})
	return d.center
}

// HopDistances returns, for each device, the minimum number of range-R
// hops from src (-1 if unreachable). The maximum finite value is the
// eccentricity of src, the "D" in the paper's O(βD + log|Σ|) bound when
// src is the source.
func (d *Deployment) HopDistances(src int) []int {
	dist := make([]int, len(d.Pos))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	var buf []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		buf = d.Neighbors(buf[:0], v)
		for _, w := range buf {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite hop distance from src.
func (d *Deployment) Eccentricity(src int) int {
	ecc := 0
	for _, v := range d.HopDistances(src) {
		if v > ecc {
			ecc = v
		}
	}
	return ecc
}

// AvgNeighborCount returns the mean number of neighbors per device; the
// paper reports "each device has approximately 80 neighbors, in
// expectation" for the Figure 6 setup.
func (d *Deployment) AvgNeighborCount() float64 {
	total := 0
	var buf []int
	for i := range d.Pos {
		buf = d.Neighbors(buf[:0], i)
		total += len(buf)
	}
	return float64(total) / float64(len(d.Pos))
}
