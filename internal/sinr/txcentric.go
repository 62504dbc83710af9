package sinr

import (
	"slices"

	"dcluster/internal/geom"
)

// This file implements the transmitter-centric Deliver path shared by both
// engines: instead of scanning every listener each round, the round's
// candidate listeners are derived from the spatial grid cells around the
// active transmitters.
//
// The pruning argument: a reception requires the receiver's strongest
// incoming signal to clear the β·noise floor (SINR ≥ β with non-negative
// interference), which bounds the winning sender's distance by the
// transmission range. The grid's cell side is at least that range, so every
// possible (sender, receiver) pair of a delivery lies within one cell of
// each other — a node whose cell is outside the 3×3 blocks around the
// transmitters' cells receives nothing and is skipped without evaluating a
// single gain. This is the same cell-granularity range argument the sparse
// engine's grid sweep applies from the listener side when it skips cells
// with no transmitter in their 3×3 block.

// txCandCells is the number of cells marked per transmitter (its 3×3 block);
// the transmitter-centric path is attempted only when marking is cheap
// relative to the listener count it may prune.
const txCandCells = 9

// enumDivisor gates candidate *enumeration* (building the pruned listener
// slice, which pays a gather and a sort): it is used only when the candidate
// occupancy is below count/enumDivisor; between that and the marking gate,
// candidate cells are only used as a per-listener O(1) skip filter.
const enumDivisor = 4

// cellGeom is the uniform-grid geometry shared by the engines' spatial
// indexes: cell side at least the transmission range (the candidate-sender
// query radius), grown if needed to cap the cell count near 8·n so sparse
// deployments over huge areas stay linear in memory.
type cellGeom struct {
	min    geom.Point
	cell   float64
	nx, ny int
}

// newCellGeom fixes the grid geometry over a fixed deployment.
func newCellGeom(rangeR float64, pos []geom.Point) cellGeom {
	min, max := geom.BoundingBox(pos)
	g := cellGeom{min: min, cell: rangeR}
	w, h := max.X-min.X, max.Y-min.Y
	n := len(pos)
	for {
		g.nx = int(w/g.cell) + 1
		g.ny = int(h/g.cell) + 1
		if n == 0 || g.nx*g.ny <= 8*n+64 {
			break
		}
		g.cell *= 2
	}
	return g
}

// cellOf returns the grid cell index of p, clamped to the grid.
func (g cellGeom) cellOf(p geom.Point) int {
	cx := int((p.X - g.min.X) / g.cell)
	cy := int((p.Y - g.min.Y) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.ny {
		cy = g.ny - 1
	}
	return cy*g.nx + cx
}

// listenerIndex is the static cell→nodes index behind the transmitter-centric
// path: cellOfNode gives each node's cell, and the CSR arrays list each
// cell's nodes in ascending node order (so gathered candidate sets sort
// cheaply into the engine-contract listener order).
type listenerIndex struct {
	g          cellGeom
	cellOfNode []int32
	start      []int32 // CSR offsets, len nx·ny+1
	nodes      []int32 // node indices grouped by cell
}

// newListenerIndex builds the index in two counting passes.
func newListenerIndex(g cellGeom, pos []geom.Point) *listenerIndex {
	li := &listenerIndex{
		g:          g,
		cellOfNode: make([]int32, len(pos)),
		start:      make([]int32, g.nx*g.ny+1),
		nodes:      make([]int32, len(pos)),
	}
	for i, p := range pos {
		c := g.cellOf(p)
		li.cellOfNode[i] = int32(c)
		li.start[c+1]++
	}
	for c := 0; c < len(li.start)-1; c++ {
		li.start[c+1] += li.start[c]
	}
	cursor := make([]int32, g.nx*g.ny)
	copy(cursor, li.start[:len(li.start)-1])
	for i := range pos {
		c := li.cellOfNode[i]
		li.nodes[cursor[c]] = int32(i)
		cursor[c]++
	}
	return li
}

// candScratch is the per-session scratch of the transmitter-centric path.
// Cells carry an epoch stamp instead of being cleared between rounds.
type candScratch struct {
	stamp []int64
	epoch int64
	cells []int32
	cand  []int
}

// newCandScratch sizes a scratch for the index's grid.
func (li *listenerIndex) newCandScratch() *candScratch {
	return &candScratch{stamp: make([]int64, li.g.nx*li.g.ny)}
}

// mark stamps every cell of the 3×3 blocks around the transmitters' cells
// and returns the total node occupancy of the stamped cells (an upper bound
// on the possible receivers, transmitters included).
func (li *listenerIndex) mark(txs []int, s *candScratch) int {
	s.epoch++
	s.cells = s.cells[:0]
	total := 0
	nx := li.g.nx
	for _, v := range txs {
		c := int(li.cellOfNode[v])
		cx, cy := c%nx, c/nx
		ylo, yhi := cy-1, cy+1
		if ylo < 0 {
			ylo = 0
		}
		if yhi >= li.g.ny {
			yhi = li.g.ny - 1
		}
		xlo, xhi := cx-1, cx+1
		if xlo < 0 {
			xlo = 0
		}
		if xhi >= nx {
			xhi = nx - 1
		}
		for y := ylo; y <= yhi; y++ {
			base := y * nx
			for x := xlo; x <= xhi; x++ {
				cc := base + x
				if s.stamp[cc] == s.epoch {
					continue
				}
				s.stamp[cc] = s.epoch
				s.cells = append(s.cells, int32(cc))
				total += int(li.start[cc+1] - li.start[cc])
			}
		}
	}
	return total
}

// gather returns the nodes of the currently stamped cells in ascending node
// order, reusing the scratch buffer. Call after mark in the same round.
func (li *listenerIndex) gather(s *candScratch) []int {
	s.cand = s.cand[:0]
	for _, cc := range s.cells {
		for _, v := range li.nodes[li.start[cc]:li.start[cc+1]] {
			s.cand = append(s.cand, int(v))
		}
	}
	slices.Sort(s.cand)
	return s.cand
}

// skip reports whether node u lies outside every stamped cell — i.e. beyond
// the transmission range of every transmitter this round — and can be
// dropped without evaluating any gain.
func (li *listenerIndex) skip(u int, s *candScratch) bool {
	return s.stamp[li.cellOfNode[u]] != s.epoch
}
