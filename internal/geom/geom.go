// Package geom supplies the 2-D geometry used to lay out cognitive radio
// deployments: node positions, distances, angles between line segments
// (the interweave beamformer is driven entirely by angles), and random
// placement primitives for Monte-Carlo scenario generation.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in the 2-D deployment plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product p . q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the scalar cross product p x q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns |p|.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Midpoint returns the midpoint of segment pq.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// String renders the point for reports.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// AngleAt returns the angle at vertex v between rays v->a and v->b,
// in radians within [0, pi]. Algorithm 3 computes alpha = angle
// Pr-St1-St2 exactly this way.
func AngleAt(v, a, b Point) float64 {
	u, w := a.Sub(v), b.Sub(v)
	nu, nw := u.Norm(), w.Norm()
	if nu == 0 || nw == 0 {
		return 0
	}
	c := u.Dot(w) / (nu * nw)
	c = math.Max(-1, math.Min(1, c))
	return math.Acos(c)
}

// Bearing returns the angle of the vector p->q measured from the +X axis,
// in radians within (-pi, pi].
func Bearing(p, q Point) float64 {
	d := q.Sub(p)
	return math.Atan2(d.Y, d.X)
}

// Collinearity measures how close points a, b, c are to lying on one
// line: 0 means perfectly collinear, 1 means maximally spread
// (it is |sin| of the angle at b). Algorithm 3's PU-selection heuristic
// prefers primary receivers that maximise this for (St1, St2, Pr).
func Collinearity(a, b, c Point) float64 {
	u, w := a.Sub(b), c.Sub(b)
	nu, nw := u.Norm(), w.Norm()
	if nu == 0 || nw == 0 {
		return 0
	}
	return math.Abs(u.Cross(w)) / (nu * nw)
}

// Segment is a line segment between two points.
type Segment struct {
	A, B Point
}

// Length returns the segment's length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Intersects reports whether segments s and t share a point. The testbed
// uses this to decide whether a radio link crosses an obstacle wall.
func (s Segment) Intersects(t Segment) bool {
	d1 := t.B.Sub(t.A).Cross(s.A.Sub(t.A))
	d2 := t.B.Sub(t.A).Cross(s.B.Sub(t.A))
	d3 := s.B.Sub(s.A).Cross(t.A.Sub(s.A))
	d4 := s.B.Sub(s.A).Cross(t.B.Sub(s.A))
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	on := func(p, a, b Point) bool {
		return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
			math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
	}
	switch {
	case d1 == 0 && on(s.A, t.A, t.B):
		return true
	case d2 == 0 && on(s.B, t.A, t.B):
		return true
	case d3 == 0 && on(t.A, s.A, s.B):
		return true
	case d4 == 0 && on(t.B, s.A, s.B):
		return true
	}
	return false
}

// DistToSegment returns the distance from point p to segment s.
func (s Segment) DistToPoint(p Point) float64 {
	ab := s.B.Sub(s.A)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(ab) / l2
	t = math.Max(0, math.Min(1, t))
	proj := s.A.Add(ab.Scale(t))
	return p.Dist(proj)
}

// RandomInDisc draws a point uniformly from the disc of the given radius
// centred at c. Table 1's scenario scatters primary receivers uniformly in
// a 300 m-diameter disc this way.
func RandomInDisc(rng *rand.Rand, c Point, radius float64) Point {
	r := radius * math.Sqrt(rng.Float64())
	th := 2 * math.Pi * rng.Float64()
	return Point{c.X + r*math.Cos(th), c.Y + r*math.Sin(th)}
}

// RandomInRect draws a point uniformly from the axis-aligned rectangle
// [x0,x1] x [y0,y1].
func RandomInRect(rng *rand.Rand, x0, y0, x1, y1 float64) Point {
	return Point{x0 + (x1-x0)*rng.Float64(), y0 + (y1-y0)*rng.Float64()}
}

// PolarPoint returns the point at the given radius and angle (radians,
// from +X axis) around centre c. Figure 8's receiver walks a semicircle
// in 20-degree steps using this.
func PolarPoint(c Point, radius, angle float64) Point {
	return Point{c.X + radius*math.Cos(angle), c.Y + radius*math.Sin(angle)}
}

// Centroid returns the mean position of pts; the zero Point for none.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var s Point
	for _, p := range pts {
		s = s.Add(p)
	}
	return s.Scale(1 / float64(len(pts)))
}

// Diameter returns the largest pairwise distance among pts. Cluster
// validity (all members within d of each other) checks this.
func Diameter(pts []Point) float64 {
	max := 0.0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d > max {
				max = d
			}
		}
	}
	return max
}
