package geom

import (
	"math"
	"testing"
)

// Fuzz targets for the grid/cell bucketing. The grid index backs the
// topology statistics and both SINR engines, so its range queries must
// agree exactly with brute force on arbitrary point sets, cell sizes and
// query radii — including points landing exactly on cell boundaries and
// radii hitting distances exactly.

// fuzzPoints decodes an arbitrary byte string into a point set. Consecutive
// byte pairs become one point on a 1/16-step lattice spanning [0, 16), so
// mutated inputs routinely produce duplicate points, cell-boundary hits and
// exact distance ties.
func fuzzPoints(data []byte) []Point {
	pts := make([]Point, 0, len(data)/2+1)
	for i := 0; i+1 < len(data); i += 2 {
		pts = append(pts, Pt(float64(data[i])/16, float64(data[i+1])/16))
	}
	if len(pts) == 0 {
		pts = append(pts, Pt(0, 0))
	}
	return pts
}

func FuzzGridIndexNeighbors(f *testing.F) {
	f.Add([]byte{0, 0, 16, 0, 0, 16, 255, 255}, uint8(16), uint8(64))
	f.Add([]byte{8, 8, 8, 8, 8, 8}, uint8(1), uint8(255))           // duplicates, tiny cell
	f.Add([]byte{0, 0, 32, 0, 64, 0, 96, 0}, uint8(32), uint8(128)) // collinear, boundary radius
	f.Add([]byte{17, 3, 200, 41, 77, 91, 5, 240, 130, 130}, uint8(80), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, cellRaw, rRaw uint8) {
		if len(data) > 256 {
			t.Skip("cap the point count so brute force stays cheap")
		}
		pts := fuzzPoints(data)
		cell := 0.25 + float64(cellRaw)/32 // (0.25, 8.25)
		// Query radii from well below the cell size to beyond it (ForNeighbors
		// widens the window automatically), snapped to the coordinate lattice
		// so exact-boundary hits occur.
		r := float64(rRaw) / 16
		g := NewGridIndex(pts, cell)
		r2 := r * r
		for qi, q := range pts {
			got := map[int]bool{}
			g.ForNeighbors(q, r, func(i int) bool {
				if got[i] {
					t.Fatalf("query %d: index %d reported twice", qi, i)
				}
				got[i] = true
				return true
			})
			for i, p := range pts {
				want := Dist2(p, q) <= r2
				if got[i] != want {
					t.Fatalf("query %d (r=%v): index %d in result=%v, want %v (d2=%v r2=%v)",
						qi, r, i, got[i], want, Dist2(p, q), r2)
				}
			}
		}
	})
}

// nearestOther finds the point nearest to pts[i] other than i through
// ForNeighbors alone: it doubles the query radius from the cell side until
// some other point lies within it, then keeps the nearest point inside that
// radius, which is the nearest overall. ok is false when pts has no other
// point.
func nearestOther(g *GridIndex, pts []Point, i int) (j int, d float64, ok bool) {
	if len(pts) < 2 {
		return -1, 0, false
	}
	j, d = -1, math.Inf(1)
	for r := g.Cell; j < 0; r *= 2 {
		g.ForNeighbors(pts[i], r, func(k int) bool {
			if dk := Dist(pts[k], pts[i]); k != i && dk < d {
				j, d = k, dk
			}
			return true
		})
	}
	return j, d, true
}

// FuzzGridIndexNearestOther checks nearest-point search through widening
// ForNeighbors queries against brute force: radii far beyond the cell side,
// duplicate points and distance ties.
func FuzzGridIndexNearestOther(f *testing.F) {
	f.Add([]byte{0, 0, 16, 0, 0, 16}, uint8(16))
	f.Add([]byte{8, 8, 8, 8}, uint8(4))               // exact duplicate: distance 0
	f.Add([]byte{0, 0, 255, 255, 128, 0}, uint8(200)) // far-apart points, huge cell
	f.Fuzz(func(t *testing.T, data []byte, cellRaw uint8) {
		if len(data) > 128 {
			t.Skip("cap the point count so brute force stays cheap")
		}
		pts := fuzzPoints(data)
		cell := 0.25 + float64(cellRaw)/32
		g := NewGridIndex(pts, cell)
		for i := range pts {
			j, d, ok := nearestOther(g, pts, i)
			if len(pts) < 2 {
				if ok {
					t.Fatalf("nearestOther(%d) ok on singleton set", i)
				}
				continue
			}
			best := math.Inf(1)
			for k := range pts {
				if k == i {
					continue
				}
				if dk := Dist(pts[k], pts[i]); dk < best {
					best = dk
				}
			}
			// Ties may resolve to any co-minimal index; the distance must
			// match brute force exactly (same Dist arithmetic).
			if !ok || d != best || j == i || Dist(pts[j], pts[i]) != best {
				t.Fatalf("nearestOther(%d) = (%d, %v, %v), want distance %v", i, j, d, ok, best)
			}
		}
	})
}
