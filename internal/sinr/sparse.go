package sinr

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dcluster/internal/geom"
)

// DefaultFarFactor scales the transmission range into the default far-field
// truncation radius of a SparseField.
const DefaultFarFactor = 2.0

// smallTxCutoff: transmitter sets at or below this size are checked by a
// direct scan of the whole set (smallCheck, certified in the squared-distance
// domain) instead of going through the spatial grid — the grid only pays off
// when the per-listener near neighbourhood is smaller than the whole
// transmitter set. Measured crossover (BenchmarkDeliverTx sparse rows, each
// |txs| forced through both paths, min of 7, 2 vCPUs), direct vs grid in ms:
// n=4096: 0.11/0.17 at 24, 0.30/0.43 at 48, 0.49/0.52 at 64, 0.92/0.79 at 96;
// n=16384: 0.25/0.30 at 24, 0.71/0.64 at 48, 1.39/1.16 at 96. The crossover
// lies between 48 and 96 transmitters. cluster-disk-512-sparse agrees: median
// run 0.94 s at a cutoff of 24, 0.87 s at 32, 0.86 s at 48, 0.89 s at 64.
const smallTxCutoff = 48

// parallelCutoff is the minimum number of listeners before Deliver fans out
// to the worker pool; below it the goroutine overhead exceeds the work.
const parallelCutoff = 256

// chunkTarget is the aimed-for number of listeners per parallel chunk.
const chunkTarget = 128

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
// (no n² gain matrix) and computes gains lazily. Small rounds (≤
// smallTxCutoff transmitters) scan the transmitter slice directly in the
// squared-distance domain. Larger rounds bucket the transmitters into a
// uniform spatial grid, scan each listener's near field (≤ FarRadius) and
// truncate interference beyond it behind a conservative aggregate bound.
// Either way a reception is granted or denied on the fast sums only when the
// decision clears the threshold by the certSlack margin (under the
// worst-case tail on the grid path); anything closer falls back to the exact
// dense-order scan. Decisions therefore always match the dense engine.
// Listener checks fan out over goroutine chunks bounded by 4·GOMAXPROCS,
// reusing per-chunk result buffers across rounds.
//
// Memory is O(n + cells); per-round work is O(|T| + |L|·near(FarRadius))
// plus the rare exact fallbacks. A SparseField is not safe for concurrent
// Deliver calls (matching *Field); the internal parallelism is self-managed.
// Session returns views with private scratch that may Deliver concurrently.
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
	gFar    float64 // gain at the far radius (the straddling-cell bound)
	gCell   float64 // gain at one cell side — caps any out-of-inner-block gain
	gLoWinL float64 // min gain of a window-rejected tx, per-listener window
	gLoWinB float64 // same for the (wider) per-cell-block window
	span    int     // cell-block window half-width in cells, ≥ far/cell
	// rangeQ2 is the squared-distance cutoff of the quick certain-no scan:
	// any transmitter whose gain could reach the β·noise reception floor
	// (within the certSlack margin) lies within it, so a scan confined to
	// d² ≤ rangeQ2 finds every possible sender candidate exactly.
	rangeQ2 float64
	// refineOK gates the per-listener refinement and the accumulating path:
	// both index the fine tables by scanned-window offsets, so they require
	// the window to fit inside the fine table (true for any sane far radius;
	// only an extreme SetFarRadius override disables them).
	refineOK bool
	// outOK gates the out-of-window bound tier of the residual: it requires
	// the ±span window to lie inside the fine 3×3 supercell block (so the
	// out bounds partition cleanly between fine and coarse levels).
	outOK bool

	workers int

	// stop is the cooperative mid-round cancellation hook (see StopChecker);
	// nil when no run-scoped control is attached. Polled by the serial
	// listener loops, the parallel chunk workers and the accumulating path's
	// cell sweeps; workers bail out cooperatively and the abort panic is
	// raised from the caller's goroutine only.
	stop func() error

	// pathOverride forces the grid-round path selection in tests: > 0 takes
	// the accumulating cell-blocked path, < 0 the per-listener path, 0 (the
	// default) dispatches on the measured density threshold (useAccumPath).
	// It never affects the direct-scan path of small rounds.
	pathOverride int8

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
	chunkRes  [][]Reception // reusable per-chunk result buffers
	chunkErr  []error       // per-chunk stop errors (parallel cancellation)
	stripeErr []error       // per-stripe stop errors (accumulating path)

	// Supercell transmitter totals, the coarse level of the far-field bound.
	superCount []int32
	superDirty []int32

	// cand is the transmitter-centric candidate scratch (cell stamps and the
	// gathered listener buffer).
	cand *candScratch

	// Accumulating-path state (see accum.go): per-listener round outcomes
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
	// restLB/restUB cache, per listener cell and round, the count-weighted
	// lower and upper bounds on the interference from the cell's window
	// beyond the inner 3×3 block — the quick certain-no and certain-yes
	// tiers of the per-listener path. Same atomic discipline as the tail
	// bounds above.
	restLB    []uint64
	restUB    []uint64
	restStamp []int64
	epoch     int64

	// Out-of-window dirty-cell list, cached per (window box, round) for the
	// exact residual walk: listeners of the same cell share the box, and the
	// decide chain visits them back to back on the accumulating path. Only
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
		restLB:        make([]uint64, f.nx*f.ny),
		restUB:        make([]uint64, f.nx*f.ny),
		restStamp:     make([]int64, f.nx*f.ny),
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
	f.gCell = gainAt(f.params, f.cell)
	f.span = int(f.far/f.cell) + 1
	f.refineOK = f.span <= fineHalf
	f.outOK = f.span <= superSide
	// The per-listener scan box is p ± far expanded to the 3×3 inner block,
	// so a scanned cell's farthest point is max(far+cell, 2·cell) away per
	// axis — the second term dominates only in the coarse-cell regime where
	// the cell side exceeds the far radius.
	f.gLoWinL = gainAt(f.params, math.Sqrt2*math.Max(f.far+f.cell, 2*f.cell))
	f.gLoWinB = gainAt(f.params, math.Sqrt2*(f.far+2*f.cell))
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
	useGrid := len(transmitters) > smallTxCutoff
	if useGrid {
		f.bucketTx(transmitters)
	}
	dst, err := f.deliverMarked(transmitters, listeners, dst, useGrid)
	if useGrid {
		f.resetBuckets()
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

// deliverMarked is the Deliver core, entered with the transmitter bitmap
// (and, on the grid path, the CSR buckets) already set up; splitting the
// set-up/tear-down out keeps the hot path free of deferred closures, so a
// steady-state round allocates nothing. A non-nil error means the stop hook
// tripped mid-round; the caller restores scratch and aborts.
func (f *SparseField) deliverMarked(transmitters []int, listeners []int, dst []Reception, useGrid bool) ([]Reception, error) {
	s := f.scr
	count := f.n
	if listeners != nil {
		count = len(listeners)
	}

	// Dense rounds: switch to the accumulating cell-blocked path (see
	// accum.go), which derives window geometry once per listener cell
	// instead of once per listener. Byte-identical by construction — every
	// decision goes through the same conservative-bound / exact-residual /
	// dense-order-fallback chain.
	useAcc := useAccumPath(len(transmitters), count)
	if f.pathOverride != 0 {
		useAcc = f.pathOverride > 0
	}
	if useGrid && useAcc {
		return f.deliverAccum(transmitters, listeners, dst)
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

	if count < parallelCutoff || f.workers < 2 {
		s.outSeq = true
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
			if v, ok := f.checkListener(u, transmitters, useGrid); ok {
				dst = append(dst, Reception{Receiver: u, Sender: v})
			}
		}
		return dst, nil
	}

	// Parallel path: split the listener range into chunks, one result slice
	// per chunk, merged in order so output ordering matches the serial path.
	s.outSeq = false
	chunks := count / chunkTarget
	if max := f.workers * 4; chunks > max {
		chunks = max
	}
	if chunks < 2 {
		chunks = 2
	}
	for len(s.chunkRes) < chunks {
		s.chunkRes = append(s.chunkRes, nil)
		s.chunkErr = append(s.chunkErr, nil)
	}
	per := (count + chunks - 1) / chunks
	// Rebind the captured variables locally: the goroutine closure would
	// otherwise force heap cells for the reassigned outer variables on every
	// Deliver call, including the (dominant) serial rounds.
	lst, filter := listeners, cs
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * per
		hi := lo + per
		if hi > count {
			hi = count
		}
		s.chunkRes[c] = s.chunkRes[c][:0]
		s.chunkErr[c] = nil
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			out := s.chunkRes[c]
			for i := lo; i < hi; i++ {
				// Cooperative cancellation: workers poll the shared hook (a
				// context Err, so a trip is visible to every chunk at once)
				// and bail; the caller raises the abort after Wait.
				if i&stopStride == 0 && f.stop != nil {
					if err := f.stop(); err != nil {
						s.chunkErr[c] = err
						break
					}
				}
				u := i
				if lst != nil {
					u = lst[i]
				}
				if s.isTx[u] {
					continue
				}
				if filter != nil && f.lidx.skip(u, filter) {
					continue
				}
				if v, ok := f.checkListener(u, transmitters, useGrid); ok {
					out = append(out, Reception{Receiver: u, Sender: v})
				}
			}
			s.chunkRes[c] = out
		}(c, lo, hi)
	}
	wg.Wait()
	for c := 0; c < chunks; c++ {
		if err := s.chunkErr[c]; err != nil {
			return dst, err
		}
	}
	for _, out := range s.chunkRes[:chunks] {
		dst = append(dst, out...)
	}
	return dst, nil
}

// scanAcc carries the near-scan accumulation of one listener: the exact near
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

// scanCell accumulates one bucket cell's transmitters into a. The straddle
// flag (precomputed per offset) routes the cell's accepted/rejected split
// into the refinement counters. Gains here may differ from the dense
// precompute by ULPs (squared-distance arithmetic instead of Hypot);
// certSlack keeps such noise from ever deciding a reception, and the exact
// fallback recomputes dense-identically.
func (f *SparseField) scanCell(c int, u int, p geom.Point, far2 float64, straddle bool, a *scanAcc) {
	s := f.scr
	acc, rej := 0, 0
	for k := s.cellStart[c]; k < s.cellEnd[c]; k++ {
		v := int(s.cellTx[k])
		if v == u {
			continue
		}
		d2 := geom.Dist2(f.pos[v], p)
		if d2 > far2 {
			rej++
			continue
		}
		g := gainFromDist2(f.params, d2)
		a.nearTotal += g
		acc++
		switch {
		case g > a.best:
			a.best, a.bestV, a.tied = g, v, false
		case g == a.best && a.bestV >= 0:
			a.tied = true
		}
	}
	if straddle {
		a.accStr += acc
		a.rejStr += rej
	}
}

// checkListener decides whether listener u receives anything this round and
// from whom. With useGrid it scans the near field (≤ far radius) through the
// buckets and bounds the far tail; without it (small transmitter sets) it
// scans the whole transmitter slice directly (smallCheck).
func (f *SparseField) checkListener(u int, txs []int, useGrid bool) (int, bool) {
	if !useGrid {
		return f.smallCheck(u, txs)
	}
	p := f.pos[u]
	far2 := f.far * f.far
	a := scanAcc{bestV: -1}

	// The scan box is p ± far, expanded to always cover the inner 3×3 cell
	// block: when the grid cell exceeds the far radius (huge sparse areas cap
	// the cell count, which grows the cell side), p ± far can fall short of
	// the adjacent cells — which may still hold in-range senders and
	// near-field interferers.
	ux, uy := int(f.posCell[u])%f.nx, int(f.posCell[u])/f.nx
	cxlo := min(int((p.X-f.min.X-f.far)/f.cell), ux-1)
	cxhi := max(int((p.X-f.min.X+f.far)/f.cell), ux+1)
	cylo := min(int((p.Y-f.min.Y-f.far)/f.cell), uy-1)
	cyhi := max(int((p.Y-f.min.Y+f.far)/f.cell), uy+1)
	if cxlo < 0 {
		cxlo = 0
	}
	if cylo < 0 {
		cylo = 0
	}
	if cxhi >= f.nx {
		cxhi = f.nx - 1
	}
	if cyhi >= f.ny {
		cyhi = f.ny - 1
	}

	// Candidate-first ordering: a successful sender must lie within the
	// transmission range, which the 3×3 cell block around u covers (cell ≥
	// range). Scan it first; if it holds no transmitter strong enough to
	// ever clear β·noise, no delivery is possible and the outer ring scan
	// is skipped entirely — the common case in low-density rounds.
	ixlo, ixhi := max(cxlo, ux-1), min(cxhi, ux+1)
	iylo, iyhi := max(cylo, uy-1), min(cyhi, uy+1)
	refine := f.refineOK
	for cy := iylo; cy <= iyhi; cy++ {
		trow := (cy-uy+fineHalf)*fineDim - ux + fineHalf
		for cx := ixlo; cx <= ixhi; cx++ {
			f.scanCell(cy*f.nx+cx, u, p, far2, refine && f.fineStr[trow+cx], &a)
		}
	}
	if a.best < f.params.Beta*f.params.Noise*(1-certSlack) {
		// The strongest in-range signal (if any) is below the β·noise floor
		// every delivery must clear; transmitters outside the 3×3 block are
		// beyond the range and weaker still.
		return -1, false
	}
	// Quick certain-no: every transmitter outside the inner block is at
	// least a cell (≥ range) away, so its gain is capped by β·noise; if even
	// that ceiling cannot clear β times the interference already accumulated
	// plus the count-weighted window lower bound, no sender decodes — the
	// ring scan and every tail bound are skipped. Sound for unscanned
	// candidates too, since the bound uses max(best, β·noise).
	if f.refineOK {
		bu := a.best
		if bn := f.params.Beta * f.params.Noise; bn > bu {
			bu = bn
		}
		lb, ub := f.cellRestBounds(f.posCell[u])
		if certNo(bu, f.params.Beta*(f.params.Noise+a.nearTotal+lb-bu)) {
			return -1, false
		}
		// Quick certain-yes: a.best above the one-cell gain cap means the
		// strongest candidate is an inner-block transmitter and a strict
		// global maximum (everything outside the block is at least a cell
		// away). The total interference is upper-bounded without the window
		// scan — the inner block exactly (accepted members in nearTotal,
		// the straddling rejects at gFar each), window members by the
		// count-weighted nearHi sum, the out-of-window tail by the cell's
		// cached hiOut. Margin rule matches the decide chain's certain-yes.
		if f.outOK && !a.tied && a.best > f.gCell {
			_, _, hiOut, _ := f.cellTailBounds(f.posCell[u])
			if certYes(a.best, f.params.Beta*(f.params.Noise+a.nearTotal+float64(a.rejStr)*f.gFar+ub+hiOut-a.best)) {
				return a.bestV, true
			}
		}
	}
	for cy := cylo; cy <= cyhi; cy++ {
		base := cy * f.nx
		trow := (cy-uy+fineHalf)*fineDim - ux + fineHalf
		inRow := cy >= iylo && cy <= iyhi
		for cx := cxlo; cx <= cxhi; cx++ {
			if inRow && cx >= ixlo && cx <= ixhi {
				continue // inner block already scanned
			}
			f.scanCell(base+cx, u, p, far2, refine && f.fineStr[trow+cx], &a)
		}
	}
	return f.decide(u, txs, &a, f.gLoWinL, cxlo, cxhi, cylo, cyhi, far2)
}

// decide applies the SINR decision chain to one listener's accumulated near
// sums: the zero-tail certain-no, the refined conservative tail bounds
// (fetched lazily — most listeners exit before needing them), the exact
// residual tail, and — only within certSlack of the threshold or on an exact
// gain tie — the dense-order exact fallback. gLoWin is the minimum gain of a
// window-rejected transmitter for the caller's window shape; the cell range
// is the scanned window (for the residual complement).
func (f *SparseField) decide(u int, txs []int, a *scanAcc, gLoWin float64, cxlo, cxhi, cylo, cyhi int, far2 float64) (int, bool) {
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
		lo += float64(a.rejStr) * gLoWin
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
	base := a.nearTotal + f.windowTail(u, wxlo, wxhi, wylo, wyhi, cxlo, cxhi, cylo, cyhi, far2)
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

// windowTail returns the exact aggregate gain at listener u from the ±span
// window members the near scan did not near-sum: members of window cells
// outside the scanned box [cxlo..cyhi], plus scanned members beyond the far
// radius. Together with outTail it exactly complements the near scan.
func (f *SparseField) windowTail(u, wxlo, wxhi, wylo, wyhi, cxlo, cxhi, cylo, cyhi int, far2 float64) float64 {
	s := f.scr
	p := f.pos[u]
	var tail float64
	for wy := wylo; wy <= wyhi; wy++ {
		base := wy * f.nx
		inRow := wy >= cylo && wy <= cyhi
		for wx := wxlo; wx <= wxhi; wx++ {
			c := base + wx
			st, en := s.cellStart[c], s.cellEnd[c]
			if st == en {
				continue
			}
			inBox := inRow && wx >= cxlo && wx <= cxhi
			for k := st; k < en; k++ {
				v := int(s.cellTx[k])
				if v == u {
					continue
				}
				d2 := geom.Dist2(f.pos[v], p)
				if inBox && d2 <= far2 {
					continue // already in the near sum
				}
				tail += gainFromDist2(f.params, d2)
			}
		}
	}
	return tail
}

// outTail returns the exact aggregate gain at listener u from all bucketed
// transmitters outside the ±span window — one pass over the dirty cells,
// skipping the window block (whose members windowTail already resolved).
// Listeners of the same cell share the window box, so on sequential rounds
// the out-of-window cell list is derived once per (box, round) and reused;
// the gain sum itself is per listener either way, and its cell order matches
// the dirty order exactly, so the cached walk is bit-identical to the plain
// one.
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
				v := int(s.cellTx[k])
				if v == u {
					continue
				}
				tail += gainFromDist2(f.params, geom.Dist2(f.pos[v], p))
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
			v := int(s.cellTx[k])
			if v == u {
				continue
			}
			tail += gainFromDist2(f.params, geom.Dist2(f.pos[v], p))
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

// cellRestBounds returns, lazily computed and cached per round, the
// count-weighted interference bounds of cell c's ±span window beyond the
// inner 3×3 block: every member of a window cell contributes at least the
// gain at the cells' maximum rect-to-rect distance (nearLo) and at most the
// gain at the minimum (nearHi). Feeds the quick certain-no and certain-yes
// tiers of checkListener. Caller must hold refineOK.
func (f *SparseField) cellRestBounds(c int32) (lb, ub float64) {
	s := f.scr
	if atomic.LoadInt64(&s.restStamp[c]) == s.epoch {
		return math.Float64frombits(atomic.LoadUint64(&s.restLB[c])),
			math.Float64frombits(atomic.LoadUint64(&s.restUB[c]))
	}
	lb, ub = f.computeRestBounds(int(c))
	atomic.StoreUint64(&s.restLB[c], math.Float64bits(lb))
	atomic.StoreUint64(&s.restUB[c], math.Float64bits(ub))
	atomic.StoreInt64(&s.restStamp[c], s.epoch)
	return lb, ub
}

func (f *SparseField) computeRestBounds(c int) (lb, ub float64) {
	s := f.scr
	cx, cy := c%f.nx, c/f.nx
	wxlo, wxhi := max(cx-f.span, 0), min(cx+f.span, f.nx-1)
	wylo, wyhi := max(cy-f.span, 0), min(cy+f.span, f.ny-1)
	for wy := wylo; wy <= wyhi; wy++ {
		base := wy * f.nx
		trow := (wy-cy+fineHalf)*fineDim - cx + fineHalf
		inRow := wy >= cy-1 && wy <= cy+1
		for wx := wxlo; wx <= wxhi; wx++ {
			if inRow && wx >= cx-1 && wx <= cx+1 {
				continue // inner block: scanned exactly by every caller
			}
			if cnt := s.cellEnd[base+wx] - s.cellStart[base+wx]; cnt != 0 {
				lb += float64(cnt) * f.nearLo[trow+wx]
				ub += float64(cnt) * f.nearHi[trow+wx]
			}
		}
	}
	return lb, ub
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
