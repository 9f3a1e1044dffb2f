// Package geom provides the planar geometry primitives used throughout the
// simulator: points, the L-infinity and Euclidean metrics from the paper's
// analytical and simulation models, rectangles, and GridIndex, the one
// spatial hash. GridIndex answers the range queries over a deployment's
// fixed positions and the box gathers over each round's transmissions,
// groups each round's listeners by the same cells, and holds the
// half-range cells of the partition pass.
//
// The paper analyses the protocols on a two-dimensional grid under the
// L-infinity norm ("we say that v is in the neighborhood of w if
// |x2-x1| <= R and |y2-y1| <= R") and simulates them under real geometry
// (Euclidean distance via the Friis model). Both metrics are first-class
// here so every higher layer can be run under either model.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in the paper's length units
// (grid spacing 1 in the analytical model).
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3g,%.3g)", p.X, p.Y) }

// Metric identifies a distance function on the plane.
type Metric uint8

const (
	// LInf is the L-infinity (Chebyshev) metric used by the paper's
	// analytical model.
	LInf Metric = iota
	// L2 is the Euclidean metric used by the paper's simulation model.
	L2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case LInf:
		return "Linf"
	case L2:
		return "L2"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// Dist returns the distance between p and q under the metric.
func (m Metric) Dist(p, q Point) float64 {
	dx := math.Abs(p.X - q.X)
	dy := math.Abs(p.Y - q.Y)
	switch m {
	case LInf:
		return math.Max(dx, dy)
	case L2:
		return math.Hypot(dx, dy)
	default:
		panic("geom: unknown metric")
	}
}

// Within reports whether p and q are within distance r of each other
// under the metric. It avoids the square root for L2.
func (m Metric) Within(p, q Point, r float64) bool {
	dx := p.X - q.X
	dy := p.Y - q.Y
	switch m {
	case LInf:
		return math.Abs(dx) <= r && math.Abs(dy) <= r
	case L2:
		return dx*dx+dy*dy <= r*r
	default:
		panic("geom: unknown metric")
	}
}

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns the rectangle [0,side] x [0,side]; the paper's maps are
// square (e.g. "maps of size varying from 20x20 to 60x60 length units").
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r; the paper places the source "at the
// center of the network".
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}
