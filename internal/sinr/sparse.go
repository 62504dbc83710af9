package sinr

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"dcluster/internal/geom"
)

// DefaultFarFactor scales the transmission range into the default far-field
// truncation radius of a SparseField.
const DefaultFarFactor = 2.0

// smallTxCutoff: transmitter sets at or below this size are decided by a
// direct scan of the whole set (smallCheck, certified in the squared-distance
// domain) after transmitter-centric listener pruning; larger sets take the
// grid sweep (deliverAccum). Measured against that sweep (BenchmarkDeliverTx
// sparse rows, each |txs| forced through both paths, min of 7, 2 vCPUs),
// direct vs grid in ms: n=4096: 0.21/0.17 at 24, 0.35/0.25 at 32, 0.73/0.45
// at 48, 1.09/0.56 at 64; n=16384: 0.33/0.29 at 24, 0.57/0.36 at 32,
// 1.03/0.55 at 48, 1.81/0.77 at 64. On these all-listener rounds the sweep
// wins from 24 up; the value stays until a run-level measurement, which
// includes restricted listener sets, moves it.
const smallTxCutoff = 48

// parallelCutoff is the minimum number of nodes before the accumulating
// path spreads its cell rows over worker goroutines; below it the goroutine
// overhead exceeds the work.
const parallelCutoff = 256

// superSide is the coarse aggregation factor of the far-field bound: a
// supercell is superSide × superSide grid cells. Tail bounds enumerate
// individual cells inside the listener's 3×3 supercell block and whole
// supercells beyond it.
const superSide = 4

// certSlack is the relative margin demanded before the truncated fast paths
// may decide a reception. Decisions closer to the SINR threshold than this
// slack fall back to the exact full scan, so floating-point summation-order
// noise can never flip a decision relative to the dense engine.
const certSlack = 1e-9

// certNo and certYes are the margin tests of every certified decision: the
// signal x misses, or clears, the requirement need by more than certSlack.
func certNo(x, need float64) bool  { return x < need && need-x > certSlack*need }
func certYes(x, need float64) bool { return x >= need && x-need > certSlack*need }

// SparseField is the scalable SINR engine: it stores node positions only
// (no n² gain matrix) and computes gains lazily. Deliver has two paths:
//
//   - rounds of at most smallTxCutoff transmitters prune the listeners
//     around the transmitters' cells and scan the transmitter slice
//     directly per listener in the squared-distance domain (smallCheck);
//   - every larger round buckets the transmitters into a uniform spatial
//     grid and sweeps the listener cells (deliverAccum, accum.go): each
//     cell derives its ±span window once, its listeners near-sum the window
//     (≤ FarRadius) and bound the interference beyond it conservatively.
//
// Either way a reception is granted or denied on the fast sums only when
// the decision clears the threshold by the certSlack margin (under the
// worst-case tail on the grid path); anything closer falls back to the exact
// dense-order scan. Decisions therefore always match the dense engine. The
// grid path spreads its cell rows over GOMAXPROCS goroutines on fields of at
// least parallelCutoff nodes; parallelism across rounds comes from sessions
// (see Session).
//
// Memory is O(n + cells). A small round costs O(|T|·|L'|) for the listeners
// L' near a transmitter; a grid round O(|T| + cells) plus the window scans
// of the listeners with a transmitter in range, plus the rare exact
// fallbacks. A SparseField is not safe for concurrent Deliver calls
// (matching *Field). Session returns views with private scratch that may
// Deliver concurrently.
type SparseField struct {
	params Params
	n      int
	pos    []geom.Point
	far    float64 // far-field truncation radius, ≥ Range

	// Static grid geometry over the (fixed) positions.
	min    geom.Point
	cell   float64
	nx, ny int

	// Supercell (superSide × superSide cells) grid dimensions, the coarse
	// level of the two-level far-field bound.
	nsx, nsy int

	posCell []int32 // static: grid cell of each node (aliases lidx.cellOfNode)

	// lidx is the static cell→nodes index of the transmitter-centric Deliver
	// path, built over the same grid geometry.
	lidx *listenerIndex

	// Static per-offset gain bounds for the fine level of the tail bound:
	// all grid cells are congruent, so the min/max distance between two
	// cells depends only on their offset. Index (dy+fineHalf)*fineDim +
	// (dx+fineHalf); entries are 0 when the offset cell is entirely within
	// the near field (members are near-summed exactly).
	fineHi []float64
	fineLo []float64
	// fineStr marks the offsets that straddle the far radius (closest point
	// inside, farthest outside): the cells whose members the near scan splits
	// into an accepted part (in nearTotal) and a rejected part (in the tail).
	// The per-listener bound refinement corrects the static bounds for
	// exactly these cells.
	fineStr []bool
	// nearLo is the unconditional per-offset member lower bound — the gain
	// at the maximum distance between cells at that offset, with no far
	// truncation or zeroing. It feeds the quick certain-no tier: a
	// count-weighted sum over a listener cell's window lower-bounds the
	// interference of every unscanned window member.
	nearLo []float64
	// nearHi is the per-offset member upper bound (gain at the minimum
	// rect-to-rect distance) — it feeds the quick certain-yes tier: a
	// count-weighted sum over a listener cell's window upper-bounds the
	// interference of every unscanned window member. +Inf at touching
	// offsets; only chebyshev-2+ offsets are read.
	nearHi []float64

	// Grid-wide per-offset tail bounds (fine-table semantics, full grid
	// range): one pass over the occupied cells bounds the whole tail in
	// sparse rounds. Index (dy+ny−1)·godx + (dx+nx−1); nil when the grid is
	// too large (gridTableCap), which falls back to the fine/coarse levels.
	gridHi []float64
	gridLo []float64
	godx   int

	// Static coarse-level gain bounds. All supercells are congruent squares
	// and every cell sits at one of superSide² sub-positions within its
	// supercell, so the min/max rect-to-rect distance between a listener
	// cell and a whole supercell depends only on (sub-position, supercell
	// offset). Precomputing the bound gains per such pair turns the
	// per-round coarse tail loop into one table lookup per dirty supercell.
	// Index base (suby·superSide+subx)·sodx·sody, then (dsy+nsy−1)·sodx +
	// (dsx+nsx−1) for supercell offset (dsx, dsy).
	superHi    []float64
	superLo    []float64
	sodx, sody int

	// Derived scalars of the far-radius geometry, rebuilt with the tables.
	gFar   float64 // gain at the far radius (the straddling-cell bound)
	gLoWin float64 // min gain of a transmitter inside a listener's ±span window
	span   int     // cell-block window half-width in cells, ≥ far/cell
	// rangeQ2 is the squared-distance cutoff of the quick certain-no scan:
	// any transmitter whose gain could reach the β·noise reception floor
	// (within the certSlack margin) lies within it, so a scan confined to
	// d² ≤ rangeQ2 finds every possible sender candidate exactly.
	rangeQ2 float64
	// refineOK gates the per-listener bound refinement and the quick tiers
	// of the grid path: they index the fine tables by window offsets, so
	// they require the window to fit inside the fine table (true for any
	// sane far radius; only an extreme SetFarRadius override disables them).
	refineOK bool
	// outOK gates the out-of-window bound tier of the residual: it requires
	// the ±span window to lie inside the fine 3×3 supercell block (so the
	// out bounds partition cleanly between fine and coarse levels).
	outOK bool

	workers int

	// stop is the cooperative mid-round cancellation hook (see StopChecker);
	// nil when no run-scoped control is attached. Polled by the small-round
	// listener loop and the grid path's cell sweeps; its stripe workers bail
	// out cooperatively and the abort panic is raised from the caller's
	// goroutine only.
	stop func() error

	// sessioned flips (atomically — sessions are created concurrently under
	// Network's pool) once the first session exists; from then on the shared
	// tables, including the far radius, are frozen and SetFarRadius errors.
	// Shared by pointer so every session copy sees the same flag.
	sessioned *atomic.Bool

	// All per-round mutable state lives behind scr, so a session (a shallow
	// copy of the field with a fresh scratch) shares every static table above
	// while Delivering independently of its siblings.
	scr *sparseScratch
}

// sparseScratch is the per-round mutable state of one SparseField session.
// Everything static about the field (positions, grid geometry, gain tables)
// stays on the SparseField; everything a Deliver call writes lives here.
type sparseScratch struct {
	// Per-round transmitter buckets (CSR layout, reused across rounds).
	// For a nonempty cell c, its transmitters are cellTx[cellStart[c]:
	// cellEnd[c]]; both arrays are zero outside the dirty list.
	cellStart []int32
	cellEnd   []int32
	cellTx    []int32
	dirty     []int32 // nonempty cell ids of the current round (for reset)
	isTx      []bool
	stripeErr []error // per-stripe stop errors (grid path)

	// Supercell transmitter totals, the coarse level of the far-field bound.
	superCount []int32
	superDirty []int32

	// cand is the transmitter-centric candidate scratch (cell stamps and the
	// gathered listener buffer).
	cand *candScratch

	// Grid-path state (see accum.go): per-listener round outcomes
	// behind an epoch stamp, the reusable window-descriptor buffers (one per
	// parallel stripe), and the listener-restriction bitmap.
	accSender []int32
	accStamp  []int64
	win       []winCell
	winPar    [][]winCell
	outw      []winCell
	outwPar   [][]winCell
	d2q       []float64
	d2qPar    [][]float64
	isL       []bool

	// Per-listener-cell conservative tail bounds, computed lazily during a
	// round and cached behind an epoch stamp: upper and lower bounds on the
	// whole tail, plus the same pair restricted to cells outside the ±span
	// window (the residual's window-exact tier bounds only that remainder).
	// Accessed with atomics: concurrent workers may recompute a cell's
	// bounds redundantly, but the computation is deterministic, so every
	// store writes identical bits.
	cellTail      []uint64 // math.Float64bits of the upper bound
	cellTailLo    []uint64 // math.Float64bits of the lower bound
	cellTailOut   []uint64 // upper bound, cells outside the ±span window
	cellTailOutLo []uint64 // lower bound, cells outside the ±span window
	tailStamp     []int64
	epoch         int64

	// Out-of-window dirty-cell list, cached per (window box, round) for the
	// exact residual walk: listeners of the same cell share the box, and the
	// decide chain visits them back to back on the grid path. Only
	// maintained on sequential rounds (outSeq) — concurrent workers would
	// race on it, and the plain walk is used instead.
	outSeq   bool
	outCells []int32
	outBox   [4]int32
	outStamp int64
}

// fineHalf spans the largest cell offset reachable inside a 3×3 supercell
// block (2·superSide−1 cells, padded to 3·superSide for safety).
const fineHalf = 3 * superSide

// fineDim is the fine-table side length.
const fineDim = 2*fineHalf + 1

// NewSparseField builds a sparse engine over the given positions with the
// default far-field radius DefaultFarFactor·Range.
func NewSparseField(params Params, pos []geom.Point) (*SparseField, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := len(pos)
	f := &SparseField{
		params:    params,
		n:         n,
		pos:       append([]geom.Point(nil), pos...),
		far:       DefaultFarFactor * params.Range(),
		workers:   runtime.GOMAXPROCS(0),
		sessioned: new(atomic.Bool),
	}
	f.initGrid()
	return f, nil
}

// initGrid fixes the cell geometry (shared with the listener index: cell
// side = Range, the candidate-sender query radius, grown if needed to cap
// the cell count near 8·n so sparse deployments over huge areas stay linear
// in memory) and builds the static per-node and per-cell indexes.
func (f *SparseField) initGrid() {
	g := newCellGeom(f.params.Range(), f.pos)
	f.min, f.cell, f.nx, f.ny = g.min, g.cell, g.nx, g.ny
	f.nsx = (f.nx + superSide - 1) / superSide
	f.nsy = (f.ny + superSide - 1) / superSide
	f.buildFineTables()
	f.buildSuperTables()
	f.buildGridTables()
	f.lidx = newListenerIndex(g, f.pos)
	f.posCell = f.lidx.cellOfNode
	f.scr = f.newScratch()
}

// newScratch allocates a zeroed per-session scratch sized to the grid.
func (f *SparseField) newScratch() *sparseScratch {
	side := 2*f.span + 1
	return &sparseScratch{
		cellStart:     make([]int32, f.nx*f.ny),
		cellEnd:       make([]int32, f.nx*f.ny),
		isTx:          make([]bool, f.n),
		superCount:    make([]int32, f.nsx*f.nsy),
		cand:          f.lidx.newCandScratch(),
		cellTail:      make([]uint64, f.nx*f.ny),
		cellTailLo:    make([]uint64, f.nx*f.ny),
		cellTailOut:   make([]uint64, f.nx*f.ny),
		cellTailOutLo: make([]uint64, f.nx*f.ny),
		tailStamp:     make([]int64, f.nx*f.ny),
		accSender:     make([]int32, f.n),
		accStamp:      make([]int64, f.n),
		win:           make([]winCell, 0, side*side),
		outw:          make([]winCell, 0, side*side),
		d2q:           make([]float64, 0, 64),
		isL:           make([]bool, f.n),
	}
}

// Session returns a view of the field with its own per-round scratch. All
// static tables (positions, grid geometry, gain bounds) are shared; sessions
// may Deliver concurrently with each other. Creating a session freezes the
// far radius (SetFarRadius errors afterwards), so root and sessions can
// never disagree on the truncation bound.
func (f *SparseField) Session() Engine {
	f.sessioned.Store(true)
	g := *f
	g.scr = f.newScratch()
	g.stop = nil
	return &g
}

// SetStopCheck installs the cooperative mid-round cancellation hook; see
// StopChecker. The hook is polled from Deliver's worker goroutines too, so
// it must be goroutine-safe (a context's Err method is).
func (f *SparseField) SetStopCheck(fn func() error) { f.stop = fn }

// SetFarRadius overrides the far-field truncation radius. It must be at
// least the transmission range (candidate senders are searched within the
// far radius). Call before the first Deliver; once a session exists the
// radius is frozen (sessions capture it at creation, so changing it later
// would let the root and its sessions disagree on borderline receptions)
// and SetFarRadius returns an error.
func (f *SparseField) SetFarRadius(r float64) error {
	if f.sessioned.Load() {
		return fmt.Errorf("sinr: far radius is frozen once sessions exist")
	}
	if r < f.params.Range() {
		return fmt.Errorf("sinr: far radius %v below transmission range %v", r, f.params.Range())
	}
	f.far = r
	f.buildFineTables()
	f.buildSuperTables()
	f.buildGridTables()
	return nil
}

// buildFineTables precomputes, for every cell offset inside the fine window,
// the conservative gain bounds used by computeCellTail: hi at the closest
// possible inter-cell distance (clamped to the far radius), lo at the
// farthest (only when the whole offset cell is certainly beyond the far
// radius).
func (f *SparseField) buildFineTables() {
	f.fineHi = make([]float64, fineDim*fineDim)
	f.fineLo = make([]float64, fineDim*fineDim)
	f.fineStr = make([]bool, fineDim*fineDim)
	f.nearLo = make([]float64, fineDim*fineDim)
	f.nearHi = make([]float64, fineDim*fineDim)
	gFar := gainAt(f.params, f.far)
	for dy := -fineHalf; dy <= fineHalf; dy++ {
		for dx := -fineHalf; dx <= fineHalf; dx++ {
			gapX := float64(abs(dx)-1) * f.cell
			if gapX < 0 {
				gapX = 0
			}
			gapY := float64(abs(dy)-1) * f.cell
			if gapY < 0 {
				gapY = 0
			}
			maxX := float64(abs(dx)+1) * f.cell
			maxY := float64(abs(dy)+1) * f.cell
			dmin := math.Sqrt(gapX*gapX + gapY*gapY)
			dmax := math.Sqrt(maxX*maxX + maxY*maxY)
			i := (dy+fineHalf)*fineDim + (dx + fineHalf)
			f.nearLo[i] = gainAt(f.params, dmax)
			f.nearHi[i] = gainAt(f.params, dmin) // +Inf at touching offsets; only ring-2+ offsets are read
			if dmax <= f.far {
				continue // fully near for any listener in the centre cell
			}
			if dmin <= f.far {
				f.fineHi[i] = gFar
				f.fineStr[i] = true
			} else {
				f.fineHi[i] = gainAt(f.params, dmin)
				f.fineLo[i] = gainAt(f.params, dmax)
			}
		}
	}
	f.gFar = gFar
	f.span = int(f.far/f.cell) + 1
	f.refineOK = f.span <= fineHalf
	f.outOK = f.span <= superSide
	// The ±span window reaches (span+1)·cell ≤ far+2·cell from any point of
	// the listener's cell per axis.
	f.gLoWin = gainAt(f.params, math.Sqrt2*(f.far+2*f.cell))
	// gain(d) ≥ β·noise·(1−certSlack) ⟺ d² ≤ range²·(1−certSlack)^(−2/α):
	// the ball the quick certain-no scan must cover exactly.
	f.rangeQ2 = f.params.Range() * f.params.Range() * math.Pow(1-certSlack, -2/f.params.Alpha)
}

// buildSuperTables precomputes the coarse-level bound gains per (cell
// sub-position, supercell offset) pair: hi at the closest rect-to-rect
// distance (clamped to gFar when the supercell may reach into the near
// field), lo at the farthest, only when the whole supercell is certainly
// beyond the far radius. The geometry is translation-invariant, so the rects
// are laid out relative to the listener cell's supercell origin; the
// resulting bounds match computeCellTail's previous per-round arithmetic up
// to ULPs, which the certSlack decision margin absorbs.
func (f *SparseField) buildSuperTables() {
	f.sodx, f.sody = 2*f.nsx-1, 2*f.nsy-1
	f.superHi = make([]float64, superSide*superSide*f.sodx*f.sody)
	f.superLo = make([]float64, len(f.superHi))
	far2 := f.far * f.far
	gFar := gainAt(f.params, f.far)
	sw := float64(superSide) * f.cell
	for suby := 0; suby < superSide; suby++ {
		for subx := 0; subx < superSide; subx++ {
			ax0 := float64(subx) * f.cell
			ay0 := float64(suby) * f.cell
			base := (suby*superSide + subx) * f.sodx * f.sody
			for dsy := -(f.nsy - 1); dsy <= f.nsy-1; dsy++ {
				row := base + (dsy+f.nsy-1)*f.sodx
				for dsx := -(f.nsx - 1); dsx <= f.nsx-1; dsx++ {
					qx0 := float64(dsx) * sw
					qy0 := float64(dsy) * sw
					dmin2, dmax2 := rectRectDist2(ax0, ay0, ax0+f.cell, ay0+f.cell, qx0, qy0, qx0+sw, qy0+sw)
					i := row + dsx + f.nsx - 1
					if dmin2 <= far2 {
						f.superHi[i] = gFar
					} else {
						f.superHi[i] = gainAt(f.params, math.Sqrt(dmin2))
						f.superLo[i] = gainAt(f.params, math.Sqrt(dmax2))
					}
				}
			}
		}
	}
}

// gridTableCap bounds the grid-wide offset table size (entries per table);
// beyond it (huge sparse areas) computeCellTail falls back to the two-level
// fine/coarse structure, which is O(1) in grid size.
const gridTableCap = 1 << 21

// buildGridTables precomputes the computeCellTail bound gains for every cell
// offset of the whole grid — the same semantics as the fine tables (hi at the
// closest inter-cell distance clamped to gFar inside the far radius, lo at
// the farthest, zero when fully near) but without the ±fineHalf range limit,
// so sparse rounds can bound every occupied cell in one table-driven pass
// with no per-call distance math.
func (f *SparseField) buildGridTables() {
	f.godx = 2*f.nx - 1
	entries := f.godx * (2*f.ny - 1)
	if entries > gridTableCap {
		f.gridHi, f.gridLo = nil, nil
		return
	}
	f.gridHi = make([]float64, entries)
	f.gridLo = make([]float64, entries)
	gFar := gainAt(f.params, f.far)
	for dy := -(f.ny - 1); dy <= f.ny-1; dy++ {
		for dx := -(f.nx - 1); dx <= f.nx-1; dx++ {
			gapX := float64(abs(dx)-1) * f.cell
			if gapX < 0 {
				gapX = 0
			}
			gapY := float64(abs(dy)-1) * f.cell
			if gapY < 0 {
				gapY = 0
			}
			maxX := float64(abs(dx)+1) * f.cell
			maxY := float64(abs(dy)+1) * f.cell
			dmin := math.Sqrt(gapX*gapX + gapY*gapY)
			dmax := math.Sqrt(maxX*maxX + maxY*maxY)
			i := (dy+f.ny-1)*f.godx + dx + f.nx - 1
			if dmax <= f.far {
				continue // fully near: every member is in the window's near sum
			}
			if dmin <= f.far {
				f.gridHi[i] = gFar
			} else {
				f.gridHi[i] = gainAt(f.params, dmin)
				f.gridLo[i] = gainAt(f.params, dmax)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// FarRadius returns the far-field truncation radius.
func (f *SparseField) FarRadius() float64 { return f.far }

// N returns the number of nodes in the field.
func (f *SparseField) N() int { return f.n }

// Params returns the model parameters.
func (f *SparseField) Params() Params { return f.params }

// Positions returns the node positions.
func (f *SparseField) Positions() []geom.Point { return f.pos }

// Gain returns the received power at u from a transmission by v, computed
// lazily from the positions (0 for v == u, matching the dense engine).
func (f *SparseField) Gain(v, u int) float64 {
	if v == u {
		return 0
	}
	return gainAt(f.params, geom.Dist(f.pos[v], f.pos[u]))
}

// Distance returns the Euclidean distance between v and u.
func (f *SparseField) Distance(v, u int) float64 {
	return geom.Dist(f.pos[v], f.pos[u])
}

// CommGraph returns adjacency lists of the communication graph: edges
// between nodes at distance ≤ (1−ε)·range.
func (f *SparseField) CommGraph() [][]int {
	return geom.CommGraph(f.pos, f.params.GraphRadius())
}

// cellOf returns the grid cell index of p, clamped to the grid.
func (f *SparseField) cellOf(p geom.Point) int {
	cx := int((p.X - f.min.X) / f.cell)
	cy := int((p.Y - f.min.Y) / f.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= f.nx {
		cx = f.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= f.ny {
		cy = f.ny - 1
	}
	return cy*f.nx + cx
}

// bucketTx fills the CSR transmitter buckets for one round. cellEnd doubles
// as the per-cell count, then the placement cursor; after placement it holds
// each cell's end offset while cellStart holds its start.
func (f *SparseField) bucketTx(txs []int) {
	s := f.scr
	if cap(s.cellTx) < len(txs) {
		s.cellTx = make([]int32, len(txs))
	}
	s.cellTx = s.cellTx[:len(txs)]
	s.dirty = s.dirty[:0]
	s.epoch++
	for _, v := range txs {
		c := f.cellOf(f.pos[v])
		if s.cellEnd[c] == 0 {
			s.dirty = append(s.dirty, int32(c))
		}
		s.cellEnd[c]++
	}
	var sum int32
	s.superDirty = s.superDirty[:0]
	for _, c := range s.dirty {
		cnt := s.cellEnd[c]
		s.cellStart[c] = sum
		s.cellEnd[c] = sum // placement cursor
		sum += cnt
		sc := f.superOf(int(c))
		if s.superCount[sc] == 0 {
			s.superDirty = append(s.superDirty, int32(sc))
		}
		s.superCount[sc] += cnt
	}
	for _, v := range txs {
		c := f.cellOf(f.pos[v])
		s.cellTx[s.cellEnd[c]] = int32(v)
		s.cellEnd[c]++
	}
}

// superOf returns the supercell index of grid cell c.
func (f *SparseField) superOf(c int) int {
	return (c/f.nx/superSide)*f.nsx + (c%f.nx)/superSide
}

// resetBuckets clears the per-round CSR state touched by bucketTx.
func (f *SparseField) resetBuckets() {
	s := f.scr
	for _, c := range s.dirty {
		s.cellStart[c] = 0
		s.cellEnd[c] = 0
	}
	for _, sc := range s.superDirty {
		s.superCount[sc] = 0
	}
}

// Deliver computes all successful receptions for one synchronous round with
// the given transmitter set; see Engine. Results are appended to dst in
// listener order (ascending node index when listeners is nil), matching the
// dense engine.
func (f *SparseField) Deliver(transmitters []int, listeners []int, dst []Reception) []Reception {
	if len(transmitters) == 0 {
		return dst
	}
	s := f.scr
	for _, v := range transmitters {
		s.isTx[v] = true
	}
	var err error
	if len(transmitters) > smallTxCutoff {
		f.bucketTx(transmitters)
		dst, err = f.deliverAccum(transmitters, listeners, dst)
		f.resetBuckets()
	} else {
		dst, err = f.deliverSmall(transmitters, listeners, dst)
	}
	for _, v := range transmitters {
		s.isTx[v] = false
	}
	if err != nil {
		// Scratch state (bitmap, CSR buckets) is fully restored above, so the
		// session survives the abort; the panic unwinds through the run layer
		// from the caller's goroutine (never from a worker).
		abortDeliver(err)
	}
	return dst
}

// deliverSmall is the Deliver core of small rounds (≤ smallTxCutoff
// transmitters), entered with the transmitter bitmap set; splitting the
// set-up/tear-down out keeps the hot path free of deferred closures, so a
// steady-state round allocates nothing. A non-nil error means the stop hook
// tripped mid-round; the caller restores scratch and aborts.
func (f *SparseField) deliverSmall(transmitters []int, listeners []int, dst []Reception) ([]Reception, error) {
	s := f.scr
	count := f.n
	if listeners != nil {
		count = len(listeners)
	}

	// Transmitter-centric pruning: stamp the cells around the transmitters;
	// listeners outside them cannot receive (see txcentric.go). With few
	// enough candidates and no explicit listener slice, enumerate them
	// outright so the round cost scales with the activity, not with n.
	var cs *candScratch
	if txCandCells*len(transmitters) < count {
		cs = s.cand
		total := f.lidx.mark(transmitters, cs)
		if listeners == nil && total*enumDivisor <= count {
			listeners = f.lidx.gather(cs)
			count = len(listeners)
			cs = nil // enumerated candidates need no per-listener filter
		}
	}

	for i := 0; i < count; i++ {
		if i&stopStride == 0 && f.stop != nil {
			if err := f.stop(); err != nil {
				return dst, err
			}
		}
		u := i
		if listeners != nil {
			u = listeners[i]
		}
		if s.isTx[u] {
			continue
		}
		if cs != nil && f.lidx.skip(u, cs) {
			continue
		}
		if v, ok := f.smallCheck(u, transmitters); ok {
			dst = append(dst, Reception{Receiver: u, Sender: v})
		}
	}
	return dst, nil
}

// scanAcc carries the window scan of one grid-path listener: the exact near
// sums plus the straddling-cell split counts that feed the per-listener tail
// refinement in decide.
type scanAcc struct {
	nearTotal, best float64
	bestV           int
	tied            bool
	// accStr / rejStr count the scanned members of straddling offset cells
	// (fineStr) that fell inside / outside the far radius. Accepted members
	// are double-counted by the static hi bound (they appear in nearTotal
	// AND at gFar in the bound); rejected ones are tail members with a known
	// minimum gain. Both tighten the static cell bounds per listener.
	accStr, rejStr int
}

// decide applies the SINR decision chain to one listener's near sums over
// its ±span window: the zero-tail certain-no, the refined conservative tail
// bounds (fetched lazily — most listeners exit before needing them), the
// exact residual tail, and — only within certSlack of the threshold or on an
// exact gain tie — the dense-order exact fallback. Near-sum gains may differ
// from the dense precompute by ULPs (squared-distance arithmetic instead of
// Hypot); certSlack keeps such noise from ever deciding a reception, and the
// exact fallback recomputes dense-identically.
func (f *SparseField) decide(u int, txs []int, a *scanAcc) (int, bool) {
	if a.bestV < 0 {
		return -1, false
	}
	beta, noise := f.params.Beta, f.params.Noise
	best := a.best
	if best < beta*noise*(1-certSlack) {
		return -1, false
	}
	// Certain-no with a zero tail: interference can only grow, and this
	// needs no tail bound at all — the common exit in dense deployments.
	if certNo(best, beta*(noise+a.nearTotal-best)) {
		return -1, false
	}
	// Fetch (or lazily compute) the cell's conservative tail bounds, then
	// refine them with the listener's own straddling-cell split: accepted
	// members are already near-summed exactly, so their gFar double-count
	// comes off hi; rejected window members are tail members at a known
	// minimum gain, which lifts lo.
	hi, lo, hiOut, loOut := f.cellTailBounds(f.posCell[u])
	if f.refineOK {
		hi -= float64(a.accStr) * f.gFar
		lo += float64(a.rejStr) * f.gLoWin
	}
	// Certain-no: the true interference is at least near + lower tail.
	if certNo(best, beta*(noise+a.nearTotal+lo-best)) {
		return -1, false
	}
	// Certain-yes under the upper tail bound.
	if !a.tied && certYes(best, beta*(noise+a.nearTotal+hi-best)) {
		return a.bestV, true
	}
	// Uncertain band: resolve in tiers, reusing the accumulated near sums
	// instead of re-scanning the whole transmitter set. First make the
	// ±span window exact — one cache-hot pass over the already-visited
	// window cells — and bound only the remainder with the out-of-window
	// pair; that resolves most of the band. Only if the decision still
	// straddles the threshold walk the far dirty cells exactly.
	uc := int(f.posCell[u])
	ux, uy := uc%f.nx, uc/f.nx
	wxlo, wxhi := max(ux-f.span, 0), min(ux+f.span, f.nx-1)
	wylo, wyhi := max(uy-f.span, 0), min(uy+f.span, f.ny-1)
	base := a.nearTotal + f.windowTail(u, wxlo, wxhi, wylo, wyhi)
	if f.outOK {
		if certNo(best, beta*(noise+base+loOut-best)) {
			return -1, false
		}
		if !a.tied && certYes(best, beta*(noise+base+hiOut-best)) {
			return a.bestV, true
		}
	}
	total := base + f.outTail(u, wxlo, wxhi, wylo, wyhi)
	return f.settle(u, txs, best, total, a.bestV, a.tied)
}

// settle decides listener u from an exact (up to rounding) interference
// total: certain no, certain yes (never on a best-gain tie), and otherwise —
// a knife edge or an exact tie — the dense-order exactCheck.
func (f *SparseField) settle(u int, txs []int, best, total float64, bestV int, tied bool) (int, bool) {
	need := f.params.Beta * (f.params.Noise + total - best)
	if certNo(best, need) {
		return -1, false
	}
	if !tied && certYes(best, need) {
		return bestV, true
	}
	return f.exactCheck(u, txs)
}

// windowTail returns the exact aggregate gain at listener u from the members
// of its ±span window beyond the far radius — the ones the window scan did
// not near-sum. Together with outTail it exactly complements the near sum.
func (f *SparseField) windowTail(u, wxlo, wxhi, wylo, wyhi int) float64 {
	s := f.scr
	p := f.pos[u]
	far2 := f.far * f.far
	var tail float64
	for wy := wylo; wy <= wyhi; wy++ {
		base := wy * f.nx
		for wx := wxlo; wx <= wxhi; wx++ {
			c := base + wx
			for k := s.cellStart[c]; k < s.cellEnd[c]; k++ {
				if d2 := geom.Dist2(f.pos[s.cellTx[k]], p); d2 > far2 {
					tail += gainFromDist2(f.params, d2)
				}
			}
		}
	}
	return tail
}

// outTail returns the exact aggregate gain at listener u (never a
// transmitter on the grid path) from all bucketed transmitters outside the
// ±span window — one pass over the dirty cells, skipping the window block
// (whose members windowTail already resolved). Listeners of the same cell
// share the window box, so on sequential rounds the out-of-window cell list
// is derived once per (box, round) and reused; the gain sum itself is per
// listener either way, and its cell order matches the dirty order exactly,
// so the cached walk is bit-identical to the plain one.
func (f *SparseField) outTail(u, wxlo, wxhi, wylo, wyhi int) float64 {
	s := f.scr
	p := f.pos[u]
	var tail float64
	if s.outSeq {
		box := [4]int32{int32(wxlo), int32(wxhi), int32(wylo), int32(wyhi)}
		if s.outStamp != s.epoch || s.outBox != box {
			s.outCells = s.outCells[:0]
			for _, ci := range s.dirty {
				c := int(ci)
				cx, cy := c%f.nx, c/f.nx
				if cx >= wxlo && cx <= wxhi && cy >= wylo && cy <= wyhi {
					continue
				}
				s.outCells = append(s.outCells, ci)
			}
			s.outBox, s.outStamp = box, s.epoch
		}
		for _, ci := range s.outCells {
			c := int(ci)
			for k := s.cellStart[c]; k < s.cellEnd[c]; k++ {
				tail += gainFromDist2(f.params, geom.Dist2(f.pos[s.cellTx[k]], p))
			}
		}
		return tail
	}
	for _, ci := range s.dirty {
		c := int(ci)
		cx, cy := c%f.nx, c/f.nx
		if cx >= wxlo && cx <= wxhi && cy >= wylo && cy <= wyhi {
			continue
		}
		for k := s.cellStart[c]; k < s.cellEnd[c]; k++ {
			tail += gainFromDist2(f.params, geom.Dist2(f.pos[s.cellTx[k]], p))
		}
	}
	return tail
}

// cellTailBounds returns the conservative far-field bounds of listener cell
// c for the current round, computing and caching them on first use: upper
// and lower bounds on the whole tail, plus the pair restricted to cells
// outside the ±span window. Safe for concurrent workers: a cell may be
// computed redundantly, but the value is deterministic, and the epoch stamp
// is only published after the bits.
func (f *SparseField) cellTailBounds(c int32) (hi, lo, hiOut, loOut float64) {
	s := f.scr
	if atomic.LoadInt64(&s.tailStamp[c]) == s.epoch {
		return math.Float64frombits(atomic.LoadUint64(&s.cellTail[c])),
			math.Float64frombits(atomic.LoadUint64(&s.cellTailLo[c])),
			math.Float64frombits(atomic.LoadUint64(&s.cellTailOut[c])),
			math.Float64frombits(atomic.LoadUint64(&s.cellTailOutLo[c]))
	}
	hi, lo, hiOut, loOut = f.computeCellTail(int(c))
	atomic.StoreUint64(&s.cellTail[c], math.Float64bits(hi))
	atomic.StoreUint64(&s.cellTailLo[c], math.Float64bits(lo))
	atomic.StoreUint64(&s.cellTailOut[c], math.Float64bits(hiOut))
	atomic.StoreUint64(&s.cellTailOutLo[c], math.Float64bits(loOut))
	atomic.StoreInt64(&s.tailStamp[c], s.epoch)
	return hi, lo, hiOut, loOut
}

// computeCellTail bounds the aggregate interference, at any point of
// listener cell c, from transmitters beyond the far radius.
//
// Upper bound (hi): two levels — individual cells inside c's 3×3 supercell
// block via the static per-offset gain table, whole supercells beyond it. A
// cell whose farthest point is within the far radius of all of c
// contributes nothing (its members are near-summed exactly for every
// listener in c); every other cell or supercell contributes its full
// occupancy at the gain of its closest point, clamped to the far radius.
// Boundary-straddling cells are thus double-counted on the near side — an
// overestimate, which keeps hi sound.
//
// Lower bound (lo): only cells/supercells whose closest point already lies
// beyond the far radius (their members are all in the tail for every
// listener in c), each at the gain of its farthest point.
//
// The out pair (hiOut, loOut) restricts both bounds to cells outside the
// ±span window around c — the remainder the residual's window-exact tier
// cannot resolve itself. Valid only when outOK holds (the window fits inside
// the fine block, so coarse supercells are always fully outside it).
// fineDirtyCutoff selects the fine-level iteration strategy of
// computeCellTail: below it the round's occupied-cell list is walked (cheap
// in the many low-density rounds), at or above it the 3×3-supercell block is
// swept directly.
const fineDirtyCutoff = 128

func (f *SparseField) computeCellTail(c int) (hi, lo, hiOut, loOut float64) {
	scr := f.scr
	cx, cy := c%f.nx, c/f.nx
	span := f.span
	if len(scr.dirty) < fineDirtyCutoff && f.gridHi != nil {
		// Sparse round: one pass over the occupied-cell list resolves every
		// contribution at cell granularity through the grid-wide offset
		// tables. The coarse supercell level is skipped entirely; cell-level
		// bounds are tighter than its rect aggregation, so downstream exits
		// only get easier. The dirty list is built deterministically per
		// round, so redundant concurrent recomputation still stores
		// identical bits.
		tbase := (f.ny-1-cy)*f.godx + f.nx - 1 - cx
		for _, ci := range scr.dirty {
			cc := int(ci)
			gx, gy := cc%f.nx, cc/f.nx
			cnt := float64(scr.cellEnd[cc] - scr.cellStart[cc])
			ti := tbase + gy*f.godx + gx
			h, l := f.gridHi[ti], f.gridLo[ti]
			hi += cnt * h
			lo += cnt * l
			if gx < cx-span || gx > cx+span || gy < cy-span || gy > cy+span {
				hiOut += cnt * h
				loOut += cnt * l
			}
		}
		return hi, lo, hiOut, loOut
	}

	// Dense round: fine level first — individual cells of the 3×3 supercell
	// block around c, through the static offset tables.
	sx, sy := cx/superSide, cy/superSide
	bx0, by0 := (sx-1)*superSide, (sy-1)*superSide
	bx1, by1 := bx0+3*superSide-1, by0+3*superSide-1
	if bx0 < 0 {
		bx0 = 0
	}
	if by0 < 0 {
		by0 = 0
	}
	if bx1 >= f.nx {
		bx1 = f.nx - 1
	}
	if by1 >= f.ny {
		by1 = f.ny - 1
	}
	for gy := by0; gy <= by1; gy++ {
		base := gy * f.nx
		trow := (gy - cy + fineHalf) * fineDim
		inRow := gy >= cy-span && gy <= cy+span
		for gx := bx0; gx <= bx1; gx++ {
			cc := base + gx
			cnt := float64(scr.cellEnd[cc] - scr.cellStart[cc])
			if cnt == 0 {
				continue
			}
			ti := trow + gx - cx + fineHalf
			hi += cnt * f.fineHi[ti]
			lo += cnt * f.fineLo[ti]
			if !(inRow && gx >= cx-span && gx <= cx+span) {
				hiOut += cnt * f.fineHi[ti]
				loOut += cnt * f.fineLo[ti]
			}
		}
	}

	// Coarse level: whole supercells outside the block, through the static
	// sub-position × offset bound tables (the rect-to-rect geometry depends
	// only on the cell's sub-position within its supercell and the supercell
	// offset, both precomputed in buildSuperTables).
	sub := ((cy%superSide)*superSide + cx%superSide) * f.sodx * f.sody
	for _, si := range scr.superDirty {
		s := int(si)
		qsx, qsy := s%f.nsx, s/f.nsx
		if qsx >= sx-1 && qsx <= sx+1 && qsy >= sy-1 && qsy <= sy+1 {
			continue // covered by the fine level
		}
		cnt := float64(scr.superCount[s])
		ti := sub + (qsy-sy+f.nsy-1)*f.sodx + qsx - sx + f.nsx - 1
		hi += cnt * f.superHi[ti]
		lo += cnt * f.superLo[ti]
		hiOut += cnt * f.superHi[ti]
		loOut += cnt * f.superLo[ti]
	}
	return hi, lo, hiOut, loOut
}

// rectRectDist2 returns the squared minimum and maximum distances between
// the axis-aligned rectangles [ax0,ax1]×[ay0,ay1] and [bx0,bx1]×[by0,by1].
func rectRectDist2(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64) (dmin2, dmax2 float64) {
	var dx, dy float64
	if bx0 > ax1 {
		dx = bx0 - ax1
	} else if ax0 > bx1 {
		dx = ax0 - bx1
	}
	if by0 > ay1 {
		dy = by0 - ay1
	} else if ay0 > by1 {
		dy = ay0 - by1
	}
	mx := math.Max(bx1-ax0, ax1-bx0)
	my := math.Max(by1-ay0, ay1-by0)
	return dx*dx + dy*dy, mx*mx + my*my
}

// gainFromDist2 is the received-power formula on a squared distance — the
// hot-path variant that skips Hypot. Equal to gainAt(p, √d2) up to ULPs.
// Exponents other than the α=3 default take the slow path.
func gainFromDist2(p Params, d2 float64) float64 {
	if p.Alpha == 3 {
		return p.Power / (d2 * math.Sqrt(d2))
	}
	return gainFromDist2Slow(p, d2)
}

func gainFromDist2Slow(p Params, d2 float64) float64 {
	if p.Alpha == 4 {
		return p.Power / (d2 * d2)
	}
	return gainAt(p, math.Sqrt(d2))
}

// smallCheck is the direct scan of small rounds, certified in the
// squared-distance domain. A distance-only pass first rules out listeners
// with no transmitter inside the candidate ball (d² ≤ rangeQ2). Otherwise
// the gains come from gainFromDist2 (no Hypot), summed in txs order, and
// the decision is taken only when it clears β·(N + total − best) by the
// certSlack margin; a knife edge or an exact gain tie goes to exactCheck.
// The result is always exactCheck's.
func (f *SparseField) smallCheck(u int, txs []int) (int, bool) {
	pos, params, rangeQ2 := f.pos, f.params, f.rangeQ2
	p := pos[u]
	inBall := false
	for _, v := range txs {
		if v != u && geom.Dist2(pos[v], p) <= rangeQ2 {
			inBall = true
			break
		}
	}
	if !inBall {
		// Every gain is below βN(1−certSlack), hence below βN even after
		// rounding, and the interference can only raise the requirement.
		return -1, false
	}
	var total, best float64
	bestV, tied := -1, false
	for _, v := range txs {
		if v == u {
			continue
		}
		g := gainFromDist2(params, geom.Dist2(pos[v], p))
		total += g
		switch {
		case g > best:
			best, bestV, tied = g, v, false
		case g == best:
			tied = true
		}
	}
	return f.settle(u, txs, best, total, bestV, tied)
}

// exactCheck is the knife-edge oracle: it replicates the dense engine's
// per-listener loop term for term (full scan over the transmitter slice in
// order, Hypot distances, strict-max sender choice), so every decision the
// fast paths cannot certify is taken exactly as the dense engine takes it.
func (f *SparseField) exactCheck(u int, txs []int) (int, bool) {
	p := f.pos[u]
	var total, best float64
	bestV := -1
	for _, v := range txs {
		if v == u {
			continue
		}
		g := gainAt(f.params, geom.Dist(f.pos[v], p))
		total += g
		if g > best {
			best = g
			bestV = v
		}
	}
	if bestV >= 0 && best >= f.params.Beta*(f.params.Noise+total-best) {
		return bestV, true
	}
	return -1, false
}
