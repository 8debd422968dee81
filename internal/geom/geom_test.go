package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestVectorOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -1)
	if p.Add(q) != Pt(4, 1) {
		t.Error("Add")
	}
	if p.Sub(q) != Pt(-2, 3) {
		t.Error("Sub")
	}
	if p.Scale(2) != Pt(2, 4) {
		t.Error("Scale")
	}
	if p.Dot(q) != 1 {
		t.Error("Dot")
	}
	if p.Cross(q) != -7 {
		t.Error("Cross")
	}
	if Pt(3, 4).Norm() != 5 {
		t.Error("Norm")
	}
	if Pt(0, 3).Dist(Pt(4, 0)) != 5 {
		t.Error("Dist")
	}
	if Midpoint(Pt(0, 0), Pt(2, 4)) != Pt(1, 2) {
		t.Error("Midpoint")
	}
	if Pt(1, 2).String() != "(1.0, 2.0)" {
		t.Errorf("String = %q", Pt(1, 2).String())
	}
}

func TestAngleAt(t *testing.T) {
	// Right angle at origin.
	if a := AngleAt(Pt(0, 0), Pt(1, 0), Pt(0, 1)); math.Abs(a-math.Pi/2) > 1e-12 {
		t.Errorf("right angle = %v", a)
	}
	// Straight line -> pi.
	if a := AngleAt(Pt(0, 0), Pt(1, 0), Pt(-1, 0)); math.Abs(a-math.Pi) > 1e-12 {
		t.Errorf("straight = %v", a)
	}
	// Same ray -> 0.
	if a := AngleAt(Pt(0, 0), Pt(1, 0), Pt(2, 0)); a > 1e-12 {
		t.Errorf("same ray = %v", a)
	}
	// Degenerate vertex coincident with an endpoint.
	if a := AngleAt(Pt(0, 0), Pt(0, 0), Pt(1, 1)); a != 0 {
		t.Errorf("degenerate = %v", a)
	}
}

func TestBearing(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(1, 0), 0},
		{Pt(0, 0), Pt(0, 1), math.Pi / 2},
		{Pt(0, 0), Pt(-1, 0), math.Pi},
		{Pt(1, 1), Pt(0, 0), -3 * math.Pi / 4},
	}
	for _, c := range cases {
		if got := Bearing(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Bearing(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestCollinearity(t *testing.T) {
	if c := Collinearity(Pt(0, 0), Pt(1, 0), Pt(2, 0)); c > 1e-12 {
		t.Errorf("collinear = %v", c)
	}
	if c := Collinearity(Pt(0, 0), Pt(1, 0), Pt(1, 5)); math.Abs(c-1) > 1e-12 {
		t.Errorf("perpendicular = %v", c)
	}
	if c := Collinearity(Pt(0, 0), Pt(0, 0), Pt(1, 1)); c != 0 {
		t.Errorf("degenerate = %v", c)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Segment{Pt(0, 0), Pt(2, 2)}, Segment{Pt(0, 2), Pt(2, 0)}, true},
		{Segment{Pt(0, 0), Pt(1, 1)}, Segment{Pt(2, 2), Pt(3, 3)}, false},
		{Segment{Pt(0, 0), Pt(2, 0)}, Segment{Pt(1, 0), Pt(3, 0)}, true},      // collinear overlap
		{Segment{Pt(0, 0), Pt(1, 0)}, Segment{Pt(1, 0), Pt(2, 5)}, true},      // shared endpoint
		{Segment{Pt(0, 0), Pt(1, 0)}, Segment{Pt(0.5, 1), Pt(0.5, 2)}, false}, // above, no touch
		{Segment{Pt(0, 0), Pt(1, 0)}, Segment{Pt(0.5, -1), Pt(0.5, 1)}, true}, // crossing through interior
	}
	for i, c := range cases {
		if got := c.s.Intersects(c.u); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.u.Intersects(c.s); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestDistToPoint(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if d := s.DistToPoint(Pt(5, 3)); d != 3 {
		t.Errorf("interior projection = %v", d)
	}
	if d := s.DistToPoint(Pt(-3, 4)); d != 5 {
		t.Errorf("before A = %v", d)
	}
	if d := s.DistToPoint(Pt(13, 4)); d != 5 {
		t.Errorf("after B = %v", d)
	}
	pt := Segment{Pt(1, 1), Pt(1, 1)}
	if d := pt.DistToPoint(Pt(4, 5)); d != 5 {
		t.Errorf("degenerate segment = %v", d)
	}
	if s.Length() != 10 || pt.Length() != 0 {
		t.Error("Length")
	}
}

func TestRandomInDisc(t *testing.T) {
	rng := mathx.NewRand(11)
	c := Pt(100, -50)
	const R = 150.0
	var inHalf int
	const n = 100000
	for i := 0; i < n; i++ {
		p := RandomInDisc(rng, c, R)
		if d := p.Dist(c); d > R {
			t.Fatalf("point outside disc: %v (d=%v)", p, d)
		}
		if p.Dist(c) < R/math.Sqrt2 {
			inHalf++
		}
	}
	// Uniform area => fraction within r = R/sqrt(2) is 1/2.
	if f := float64(inHalf) / n; math.Abs(f-0.5) > 0.01 {
		t.Errorf("inner-half fraction = %v, want ~0.5", f)
	}
}

func TestRandomOnCircleAndPolar(t *testing.T) {
	c := Pt(1, 2)
	for i := 0; i < 360; i++ {
		if p := PolarPoint(c, 7, float64(i)*math.Pi/180); math.Abs(p.Dist(c)-7) > 1e-9 {
			t.Fatalf("not on circle: %v", p)
		}
	}
	p := PolarPoint(c, 2, math.Pi/2)
	if p.Dist(Pt(1, 4)) > 1e-12 {
		t.Errorf("PolarPoint = %v", p)
	}
}

func TestRandomInRect(t *testing.T) {
	rng := mathx.NewRand(13)
	for i := 0; i < 1000; i++ {
		p := RandomInRect(rng, -1, -2, 3, 4)
		if p.X < -1 || p.X > 3 || p.Y < -2 || p.Y > 4 {
			t.Fatalf("outside rect: %v", p)
		}
	}
}

func TestCentroidDiameter(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(0, 2), Pt(2, 2)}
	if Centroid(pts) != Pt(1, 1) {
		t.Error("Centroid")
	}
	if d := Diameter(pts); math.Abs(d-2*math.Sqrt2) > 1e-12 {
		t.Errorf("Diameter = %v", d)
	}
	if Centroid(nil) != Pt(0, 0) || Diameter(nil) != 0 {
		t.Error("empty slices")
	}
	if Diameter([]Point{Pt(5, 5)}) != 0 {
		t.Error("single-point diameter")
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		bound := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(bound(ax), bound(ay))
		b := Pt(bound(bx), bound(by))
		c := Pt(bound(cx), bound(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
