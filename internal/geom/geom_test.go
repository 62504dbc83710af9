package geom

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dist(tt.p, tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true // avoid overflow-dominated comparisons
			}
		}
		p, q := Point{ax, ay}, Point{bx, by}
		d := Dist(p, q)
		return math.Abs(Dist2(p, q)-d*d) <= 1e-6*math.Max(1, d*d)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := q.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestBoundingBoxAndCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 4}, {-1, 1}}
	min, max := BoundingBox(pts)
	if min != (Point{-1, 0}) || max != (Point{2, 4}) {
		t.Errorf("BoundingBox = %v, %v", min, max)
	}
	c := Centroid(pts)
	want := Point{1.0 / 3.0, 5.0 / 3.0}
	if Dist(c, want) > 1e-12 {
		t.Errorf("Centroid = %v, want %v", c, want)
	}
	if Centroid(nil) != (Point{}) {
		t.Error("empty centroid must be zero point")
	}
}

func TestChiBoundsOrdering(t *testing.T) {
	// ChiLower ≤ ChiUpper for a sweep of radii.
	for _, r1 := range []float64{0.5, 1, 2, 5, 10} {
		for _, r2 := range []float64{0.1, 0.25, 0.5, 1} {
			lo, hi := ChiLower(r1, r2), ChiUpper(r1, r2)
			if lo > hi {
				t.Errorf("ChiLower(%v,%v)=%d > ChiUpper=%d", r1, r2, lo, hi)
			}
		}
	}
}

func TestChiUpperIsPackingBound(t *testing.T) {
	// A hexagonal-ish greedy packing must never exceed ChiUpper.
	r1, r2 := 2.0, 0.5
	var packed []Point
	for x := -r1; x <= r1; x += r2 {
		for y := -r1; y <= r1; y += r2 {
			p := Point{x, y}
			if p.Norm() <= r1 {
				packed = append(packed, p)
			}
		}
	}
	if len(packed) > ChiUpper(r1, r2) {
		t.Errorf("grid packing %d exceeds ChiUpper %d", len(packed), ChiUpper(r1, r2))
	}
	if len(packed) < ChiLower(r1, r2) {
		t.Errorf("grid packing %d below ChiLower %d — lower bound too optimistic", len(packed), ChiLower(r1, r2))
	}
}

func TestDGammaR(t *testing.T) {
	// d_{Γ,r} shrinks as Γ grows and never exceeds 2r.
	prev := math.Inf(1)
	for _, gamma := range []int{2, 4, 8, 16, 64, 256} {
		d := DGammaR(gamma, 1)
		if d > 2.0+1e-12 {
			t.Errorf("DGammaR(%d,1) = %v > 2r", gamma, d)
		}
		if d > prev+1e-12 {
			t.Errorf("DGammaR not monotone: Γ=%d gives %v > previous %v", gamma, d, prev)
		}
		prev = d
	}
	// Inversion property: χ(r, d_{Γ,r}) ≥ Γ/2 per the upper bound used.
	for _, gamma := range []int{16, 64, 256} {
		d := DGammaR(gamma, 1)
		if ChiUpper(1, d) < gamma/2 {
			t.Errorf("χ(1, d_{%d,1}) = %d < Γ/2", gamma, ChiUpper(1, d))
		}
	}
}

func TestGridIndexNeighbors(t *testing.T) {
	pts := []Point{{0, 0}, {0.5, 0}, {1.5, 0}, {0, 0.9}, {10, 10}}
	g := NewGridIndex(pts, 1)
	var got []int
	g.ForNeighbors(Point{0, 0}, 1, func(i int) bool {
		got = append(got, i)
		return true
	})
	// Cells x outer, y inner: cell (0,0) holds 0, 1 and 3 in ascending order.
	if want := []int{0, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("ForNeighbors = %v, want %v", got, want)
	}
	got = got[:0]
	g.ForNeighbors(Point{0, 0}, 1, func(i int) bool {
		got = append(got, i)
		return len(got) < 2
	})
	if want := []int{0, 1}; !slices.Equal(got, want) {
		t.Errorf("ForNeighbors stopping after two = %v, want %v", got, want)
	}
	// Query points outside the bounding box, near and far.
	got = got[:0]
	g.ForNeighbors(Point{-0.5, 0}, 0.6, func(i int) bool {
		got = append(got, i)
		return true
	})
	if want := []int{0}; !slices.Equal(got, want) {
		t.Errorf("ForNeighbors from outside the box = %v, want %v", got, want)
	}
	g.ForNeighbors(Point{-50, 1e9}, 3, func(i int) bool {
		t.Errorf("far query reported %d", i)
		return true
	})
}

// TestGridIndexLayout pins the CSR layout the SINR engines read: the cell
// side doubles until NX·NY ≤ 8n+64, every point sits in the cell its
// coordinates fall in, and each cell lists its points in ascending order.
func TestGridIndexLayout(t *testing.T) {
	for _, tc := range []struct {
		pts  []Point
		cell float64
		want float64
	}{
		{UniformSquare(200, 10, 1), 1, 1},
		{UniformSquare(50, 1000, 2), 1, 64}, // 16·16 cells ≤ 8·50+64 < 32·32
		{[]Point{{3, 3}}, 0.5, 0.5},
		{nil, 2, 2},
	} {
		g := NewGridIndex(tc.pts, tc.cell)
		if g.Cell != tc.want || g.NX*g.NY > 8*len(tc.pts)+64 {
			t.Fatalf("n=%d: cell %v (want %v), %d×%d cells", len(tc.pts), g.Cell, tc.want, g.NX, g.NY)
		}
		if len(g.Start) != g.NX*g.NY+1 || int(g.Start[g.NX*g.NY]) != len(tc.pts) {
			t.Fatalf("n=%d: CSR offsets %d long ending at %d", len(tc.pts), len(g.Start), g.Start[len(g.Start)-1])
		}
		min, _ := BoundingBox(tc.pts)
		for c := 0; c < g.NX*g.NY; c++ {
			members := g.Nodes[g.Start[c]:g.Start[c+1]]
			if !slices.IsSorted(members) {
				t.Fatalf("cell %d members %v not ascending", c, members)
			}
			for _, i := range members {
				p := tc.pts[i]
				cx, cy := int((p.X-min.X)/g.Cell), int((p.Y-min.Y)/g.Cell)
				if g.CellOf[i] != int32(c) || cy*g.NX+cx != c {
					t.Fatalf("point %d at %v listed in cell %d, CellOf %d, coordinates give (%d,%d)", i, p, c, g.CellOf[i], cx, cy)
				}
			}
		}
	}
}

func TestGridIndexMatchesBruteForce(t *testing.T) {
	pts := UniformSquare(300, 10, 42)
	g := NewGridIndex(pts, 1.0)
	for _, r := range []float64{0.3, 1.0, 2.5} {
		for i := 0; i < len(pts); i += 17 {
			got := map[int]bool{}
			g.ForNeighbors(pts[i], r, func(j int) bool { got[j] = true; return true })
			for j := range pts {
				inRange := Dist(pts[i], pts[j]) <= r
				if inRange != got[j] {
					t.Fatalf("r=%v i=%d j=%d: grid=%v brute=%v", r, i, j, got[j], inRange)
				}
			}
		}
	}
}

func TestGridIndexNearestOther(t *testing.T) {
	pts := []Point{{0, 0}, {3, 0}, {3.5, 0}, {100, 100}}
	g := NewGridIndex(pts, 1)
	j, d, ok := nearestOther(g, pts, 0)
	if !ok || j != 1 || math.Abs(d-3) > 1e-12 {
		t.Errorf("nearestOther(0) = %d,%v,%v", j, d, ok)
	}
	j, d, ok = nearestOther(g, pts, 2)
	if !ok || j != 1 || math.Abs(d-0.5) > 1e-12 {
		t.Errorf("nearestOther(2) = %d,%v,%v", j, d, ok)
	}
	single := []Point{{0, 0}}
	if _, _, ok := nearestOther(NewGridIndex(single, 1), single, 0); ok {
		t.Error("nearestOther on singleton must report !ok")
	}
}

func TestUniformDiskWithinRadius(t *testing.T) {
	pts := UniformDisk(500, 3, 7)
	for i, p := range pts {
		if p.Norm() > 3+1e-9 {
			t.Fatalf("point %d outside disk: %v", i, p)
		}
	}
	// Determinism.
	again := UniformDisk(500, 3, 7)
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatal("UniformDisk not deterministic for fixed seed")
		}
	}
}

func TestLinePathDiameter(t *testing.T) {
	pts := LinePath(10, 0.7)
	if !Connected(pts, 0.75) {
		t.Fatal("line path should be connected at radius 0.75")
	}
	if d := Diameter(pts, 0.75); d != 9 {
		t.Errorf("Diameter = %d, want 9", d)
	}
	if Connected(pts, 0.5) {
		t.Error("line path must be disconnected at radius 0.5")
	}
}

func TestConnectedStripIsConnected(t *testing.T) {
	pts := ConnectedStrip(60, 10, 1, 0.75, 3)
	if len(pts) != 60 {
		t.Fatalf("got %d points", len(pts))
	}
	if !Connected(pts, 0.75) {
		t.Fatal("ConnectedStrip must be connected at its radius")
	}
}

func TestConnectedStripPanicsWhenTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for insufficient points")
		}
	}()
	ConnectedStrip(2, 100, 1, 0.75, 1)
}

func TestGridLattice(t *testing.T) {
	pts := GridLattice(4, 0.5, 0, 1)
	if len(pts) != 16 {
		t.Fatalf("got %d points, want 16", len(pts))
	}
	if pts[0] != (Point{0, 0}) || pts[15] != (Point{1.5, 1.5}) {
		t.Errorf("lattice corners wrong: %v %v", pts[0], pts[15])
	}
}

func TestDensityAndMaxDegree(t *testing.T) {
	// 5 coincident-ish points plus a far one.
	pts := []Point{{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, {0.05, 0.05}, {50, 50}}
	if d := Density(pts, 1); d != 5 {
		t.Errorf("Density = %d, want 5", d)
	}
	if d := MaxDegree(pts, 1); d != 4 {
		t.Errorf("MaxDegree = %d, want 4", d)
	}
}

func TestEccentricityUnreachable(t *testing.T) {
	pts := []Point{{0, 0}, {0.5, 0}, {100, 0}}
	d := Eccentricity(pts, 1, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != -1 {
		t.Errorf("Eccentricity = %v", d)
	}
}

func TestGaussianClustersCount(t *testing.T) {
	pts := GaussianClusters(100, 5, 20, 0.5, 9)
	if len(pts) != 100 {
		t.Fatalf("got %d", len(pts))
	}
}

func TestCommGraphSymmetric(t *testing.T) {
	pts := UniformSquare(120, 6, 11)
	adj := CommGraph(pts, 1)
	for v, ns := range adj {
		for _, u := range ns {
			found := false
			for _, w := range adj[u] {
				if w == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", v, u)
			}
		}
	}
}
