package sinr

import (
	"slices"

	"dcluster/internal/geom"
)

// This file implements the transmitter-centric Deliver path shared by both
// engines: instead of scanning every listener each round, the round's
// candidate listeners are derived from the spatial grid cells around the
// active transmitters. Both engines index their nodes with one
// geom.GridIndex (cell side at least the transmission range); this file
// holds only the per-round candidate marking over it.
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

// candScratch is the per-session scratch of the transmitter-centric path.
// Cells carry an epoch stamp instead of being cleared between rounds.
type candScratch struct {
	grid  *geom.GridIndex
	stamp []int64
	epoch int64
	cells []int32
	cand  []int
}

// newCandScratch sizes a scratch for the grid.
func newCandScratch(g *geom.GridIndex) *candScratch {
	return &candScratch{grid: g, stamp: make([]int64, g.NX*g.NY)}
}

// prune makes the transmitter-centric choice of one round for both engines.
// listeners is the round's listener slice (nil: all n nodes). Marking is
// attempted only when it is cheap relative to the listener count; with few
// enough candidates and no explicit listener slice, they are enumerated
// outright, so the round cost scales with the activity, not with n. It
// returns the listeners to visit (nil: all n nodes) and filter = s when they
// still need the per-listener skip filter, nil otherwise.
func (s *candScratch) prune(txs, listeners []int, n int) (ls []int, filter *candScratch) {
	count := n
	if listeners != nil {
		count = len(listeners)
	}
	if txCandCells*len(txs) >= count {
		return listeners, nil
	}
	total := s.mark(txs)
	if listeners == nil && total*enumDivisor <= count {
		return s.gather(), nil // enumerated candidates need no filter
	}
	return listeners, s
}

// mark stamps every cell of the 3×3 blocks around the transmitters' cells
// and returns the total node occupancy of the stamped cells (an upper bound
// on the possible receivers, transmitters included).
func (s *candScratch) mark(txs []int) int {
	s.epoch++
	s.cells = s.cells[:0]
	total := 0
	g := s.grid
	nx := g.NX
	for _, v := range txs {
		c := int(g.CellOf[v])
		cx, cy := c%nx, c/nx
		xlo, xhi := max(cx-1, 0), min(cx+1, nx-1)
		ylo, yhi := max(cy-1, 0), min(cy+1, g.NY-1)
		for y := ylo; y <= yhi; y++ {
			base := y * nx
			for x := xlo; x <= xhi; x++ {
				cc := base + x
				if s.stamp[cc] == s.epoch {
					continue
				}
				s.stamp[cc] = s.epoch
				s.cells = append(s.cells, int32(cc))
				total += int(g.Start[cc+1] - g.Start[cc])
			}
		}
	}
	return total
}

// gather returns the nodes of the currently stamped cells in ascending node
// order, reusing the scratch buffer. Call after mark in the same round.
func (s *candScratch) gather() []int {
	s.cand = s.cand[:0]
	g := s.grid
	for _, cc := range s.cells {
		for _, v := range g.Nodes[g.Start[cc]:g.Start[cc+1]] {
			s.cand = append(s.cand, int(v))
		}
	}
	slices.Sort(s.cand)
	return s.cand
}

// skip reports whether node u lies outside every stamped cell — i.e. beyond
// the transmission range of every transmitter this round — and can be
// dropped without evaluating any gain.
func (s *candScratch) skip(u int) bool {
	return s.stamp[s.grid.CellOf[u]] != s.epoch
}
