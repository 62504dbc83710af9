package geom

import "math"

// GridIndex is the uniform spatial grid over a fixed point set, stored in
// CSR form (compressed sparse rows): one offsets array over the cells and
// one array of point indices grouped by cell. It serves the range queries of
// the topology statistics (ForNeighbors) and the cell geometry and cell→node
// index both SINR engines prune by.
//
// The grid's origin is the point set's bounding-box corner. Its cell side
// is at least the requested cell, doubled until the cell count NX·NY is at
// most 8n+64, so sparse deployments over huge areas stay linear in memory.
// Cell (cx, cy) has index cy·NX + cx. The exported fields are read-only.
type GridIndex struct {
	pts []Point
	min Point

	Cell   float64 // cell side
	NX, NY int     // grid dimensions in cells

	CellOf []int32 // CellOf[i]: the cell of point i
	Start  []int32 // CSR offsets, len NX·NY+1: cell c holds Nodes[Start[c]:Start[c+1]]
	Nodes  []int32 // point indices grouped by cell, ascending within each cell
}

// NewGridIndex builds the index over pts with cell side at least cell
// (cell ≤ 0 is taken as 1), in two counting passes. The index keeps pts;
// the caller must not modify them afterwards.
func NewGridIndex(pts []Point, cell float64) *GridIndex {
	if cell <= 0 {
		cell = 1
	}
	min, max := BoundingBox(pts)
	g := &GridIndex{pts: pts, min: min, Cell: cell}
	w, h := max.X-min.X, max.Y-min.Y
	n := len(pts)
	for {
		g.NX = int(w/g.Cell) + 1
		g.NY = int(h/g.Cell) + 1
		if n == 0 || g.NX*g.NY <= 8*n+64 {
			break
		}
		g.Cell *= 2
	}
	cells := g.NX * g.NY
	g.CellOf = make([]int32, n)
	g.Start = make([]int32, cells+1)
	g.Nodes = make([]int32, n)
	// Count each cell's points into Start[c], take inclusive prefix sums
	// (Start[c] = end of cell c, Start[cells] = n), then place the points in
	// descending order, which leaves Start[c] at the beginning of cell c and
	// every cell's points ascending.
	for i, p := range pts {
		c := g.cellOf(p)
		g.CellOf[i] = int32(c)
		g.Start[c]++
	}
	for c := 1; c <= cells; c++ {
		g.Start[c] += g.Start[c-1]
	}
	for i := n - 1; i >= 0; i-- {
		c := g.CellOf[i]
		g.Start[c]--
		g.Nodes[g.Start[c]] = int32(i)
	}
	return g
}

// cellOf returns the grid cell index of p, clamped to the grid.
func (g *GridIndex) cellOf(p Point) int {
	cx := min(max(int((p.X-g.min.X)/g.Cell), 0), g.NX-1)
	cy := min(max(int((p.Y-g.min.Y)/g.Cell), 0), g.NY-1)
	return cy*g.NX + cx
}

// cellSpan returns the cells [lo, hi] of one axis that the coordinate
// interval [a, b] (relative to the grid origin) overlaps, clipped to the
// n cells of the grid; lo > hi when the interval misses the grid.
func (g *GridIndex) cellSpan(a, b float64, n int) (lo, hi int) {
	fa := math.Max(math.Floor(a/g.Cell), 0)
	fb := math.Min(math.Floor(b/g.Cell), float64(n-1))
	if !(fa <= fb) {
		return 0, -1
	}
	return int(fa), int(fb)
}

// ForNeighbors calls fn for every index i with Dist2(pts[i], p) ≤ r²
// (including p itself if it is one of the indexed points); iteration stops
// early if fn returns false. It scans the cells the box [p−r, p+r]
// overlaps, x outer, y inner, and each cell's points in ascending order; p
// may lie outside the grid and r may exceed the cell side.
func (g *GridIndex) ForNeighbors(p Point, r float64, fn func(i int) bool) {
	xlo, xhi := g.cellSpan(p.X-r-g.min.X, p.X+r-g.min.X, g.NX)
	ylo, yhi := g.cellSpan(p.Y-r-g.min.Y, p.Y+r-g.min.Y, g.NY)
	r2 := r * r
	for cx := xlo; cx <= xhi; cx++ {
		for cy := ylo; cy <= yhi; cy++ {
			c := cy*g.NX + cx
			for _, i := range g.Nodes[g.Start[c]:g.Start[c+1]] {
				if Dist2(g.pts[i], p) <= r2 && !fn(int(i)) {
					return
				}
			}
		}
	}
}
