package sinr

import (
	"math"
	"runtime"
	"sync/atomic"

	"dcluster/internal/geom"
)

// smallTxCutoff: transmitter sets at or below this size are decided by a
// direct scan of the whole set (smallCheck, certified in the squared-distance
// domain) after transmitter-centric listener pruning; larger sets take the
// grid sweep (deliverAccum). Measured against that sweep (BenchmarkDeliverTx
// sparse rows, each |txs| forced through both paths, min of 7 interleaved
// runs, 2 vCPUs), direct vs grid in ms: n=4096: 0.30/0.21 at 24, 0.49/0.27
// at 32, 0.90/0.42 at 48, 1.28/0.66 at 64; n=16384: 0.46/0.38 at 24,
// 0.69/0.46 at 32, 1.33/0.62 at 48, 1.87/0.91 at 64. On these all-listener
// rounds the sweep wins from 24 up; the value stays until a run-level
// measurement, which includes restricted listener sets, moves it.
const smallTxCutoff = 48

// parallelCutoff is the minimum number of nodes before the accumulating
// path spreads its cell rows over worker goroutines; below it the goroutine
// overhead exceeds the work.
const parallelCutoff = 256

// superSide is the coarse aggregation factor of the out-of-window bound: a
// supercell is superSide × superSide grid cells. Tail bounds enumerate
// individual cells inside the listener's 3×3 supercell block and whole
// supercells beyond it.
const superSide = 4

// windowReach is the reach of a grid-path listener's exact window in
// transmission ranges: the window spans ±span cells around the listener's
// cell, span = int(windowReach·Range/cell)+1, so every transmitter outside
// it is farther than windowReach·Range from any point of the cell. The cell
// side is at least Range, hence span ≤ 3 < superSide: the window always
// lies inside the fine level of the tail bound (the listener cell's 3×3
// supercell block), and every coarse supercell is wholly outside it.
const windowReach = 2.0

// certSlack is the relative margin demanded before the bounded fast paths
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
//   - every larger round buckets the transmitters into the cells of the
//     field's spatial grid and sweeps the listener cells (deliverAccum,
//     accum.go): each cell derives its ±span window once, its listeners sum
//     every window transmitter exactly, and only the transmitters outside
//     the window are bounded, by a count-weighted per-cell pair
//     (computeCellTail) or, when that pair cannot decide, summed exactly too
//     (outTail).
//
// Either way a reception is granted or denied on the fast sums only when
// the decision clears the threshold by the certSlack margin (under the
// worst-case out-of-window bound on the grid path); anything closer falls
// back to the exact dense-order scan. Decisions therefore always match the
// dense engine. The grid path spreads its cell rows over GOMAXPROCS
// goroutines on fields of at least parallelCutoff nodes; parallelism across
// rounds comes from sessions (see Session).
//
// Both paths read the field's geom.GridIndex, the one grid type of both
// engines and the geometry queries.
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

	// grid is the static spatial grid over the (fixed) positions: the cell
	// geometry of both Deliver paths and the cell→nodes index the
	// transmitter-centric pruning and the grid sweep's listener cells read.
	grid *geom.GridIndex

	// Supercell (superSide × superSide cells) grid dimensions, the coarse
	// level of the out-of-window bound.
	nsx, nsy int

	// Static per-offset member gain bounds: all grid cells are congruent, so
	// the min/max distance between two cells depends only on their offset.
	// nearHi is the gain at the minimum distance (+Inf at touching offsets),
	// nearLo at the maximum; index (dy+fineHalf)*fineDim + (dx+fineHalf).
	// The quick tiers weight them by the transmitter counts of a listener
	// cell's window; computeCellTail's fine level by those of the cells
	// outside it (chebyshev offset ≥ 2, so every entry it reads is finite).
	nearHi []float64
	nearLo []float64

	// Grid-wide per-offset bounds (the same semantics, full grid range): one
	// pass over the occupied cells bounds the out-of-window transmitters in
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
	// per-round coarse loop into one table lookup per dirty supercell.
	// Index base (suby·superSide+subx)·sodx·sody, then (dsy+nsy−1)·sodx +
	// (dsx+nsx−1) for supercell offset (dsx, dsy).
	superHi    []float64
	superLo    []float64
	sodx, sody int

	span int // listener window half-width in cells (see windowReach)
	// rangeQ2 is the squared-distance cutoff of the quick certain-no scan:
	// any transmitter whose gain could reach the β·noise reception floor
	// (within the certSlack margin) lies within it, so a scan confined to
	// d² ≤ rangeQ2 finds every possible sender candidate exactly.
	rangeQ2 float64

	workers int

	// stop is the cooperative mid-round cancellation hook (see StopChecker);
	// nil when no run-scoped control is attached. Polled by the small-round
	// listener loop and the grid path's cell sweeps; its stripe workers bail
	// out cooperatively and the abort panic is raised from the caller's
	// goroutine only.
	stop func() error

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

	// Supercell transmitter totals, the coarse level of the out-of-window
	// bound.
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

	// Per-listener-cell bounds on the interference from the transmitters
	// outside the cell's ±span window, computed lazily during a round and
	// cached behind an epoch stamp. Accessed with atomics: concurrent
	// workers may recompute a cell's bounds redundantly, but the computation
	// is deterministic, so every store writes identical bits.
	cellTail   []uint64 // math.Float64bits of the upper bound
	cellTailLo []uint64 // math.Float64bits of the lower bound
	tailStamp  []int64
	epoch      int64

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

// gridTableCap bounds the grid-wide offset table size (entries per table);
// beyond it (huge sparse areas) computeCellTail falls back to the two-level
// fine/coarse structure, which is O(1) in grid size.
const gridTableCap = 1 << 21

// NewSparseField builds a sparse engine over the given positions. Its grid
// (geom.GridIndex) has cell side Range, the candidate-sender query radius,
// grown if needed to cap the cell count near 8·n so sparse deployments over
// huge areas stay linear in memory.
func NewSparseField(params Params, pos []geom.Point) (*SparseField, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	f := &SparseField{
		params:  params,
		n:       len(pos),
		pos:     append([]geom.Point(nil), pos...),
		workers: runtime.GOMAXPROCS(0),
	}
	f.grid = geom.NewGridIndex(f.pos, params.Range())
	g := f.grid
	f.nsx = (g.NX + superSide - 1) / superSide
	f.nsy = (g.NY + superSide - 1) / superSide
	f.span = int(windowReach*params.Range()/g.Cell) + 1
	// gain(d) ≥ β·noise·(1−certSlack) ⟺ d² ≤ range²·(1−certSlack)^(−2/α):
	// the ball the quick certain-no scan must cover exactly.
	f.rangeQ2 = params.Range() * params.Range() * math.Pow(1-certSlack, -2/params.Alpha)
	f.nearHi, f.nearLo = f.offsetTables(fineHalf, fineHalf)
	f.godx = 2*g.NX - 1
	if f.godx*(2*g.NY-1) <= gridTableCap {
		f.gridHi, f.gridLo = f.offsetTables(g.NX-1, g.NY-1)
	}
	f.buildSuperTables()
	f.scr = f.newScratch()
	return f, nil
}

// newScratch allocates a zeroed per-session scratch sized to the grid.
func (f *SparseField) newScratch() *sparseScratch {
	side := 2*f.span + 1
	cells := f.grid.NX * f.grid.NY
	return &sparseScratch{
		cellStart:  make([]int32, cells),
		cellEnd:    make([]int32, cells),
		isTx:       make([]bool, f.n),
		superCount: make([]int32, f.nsx*f.nsy),
		cand:       newCandScratch(f.grid),
		cellTail:   make([]uint64, cells),
		cellTailLo: make([]uint64, cells),
		tailStamp:  make([]int64, cells),
		accSender:  make([]int32, f.n),
		accStamp:   make([]int64, f.n),
		win:        make([]winCell, 0, side*side),
		outw:       make([]winCell, 0, side*side),
		d2q:        make([]float64, 0, 64),
		isL:        make([]bool, f.n),
	}
}

// Session returns a view of the field with its own per-round scratch. All
// static tables (positions, grid geometry, gain bounds) are shared; sessions
// may Deliver concurrently with each other.
func (f *SparseField) Session() Engine {
	g := *f
	g.scr = f.newScratch()
	g.stop = nil
	return &g
}

// SetStopCheck installs the cooperative mid-round cancellation hook; see
// StopChecker. The hook is polled from Deliver's worker goroutines too, so
// it must be goroutine-safe (a context's Err method is).
func (f *SparseField) SetStopCheck(fn func() error) { f.stop = fn }

// offsetTables returns the member gain bounds between two grid cells for
// every cell offset |dx| ≤ hx, |dy| ≤ hy: hi at the minimum distance
// between the cells (+Inf at touching offsets), lo at the maximum. Index
// (dy+hy)·(2hx+1) + (dx+hx).
func (f *SparseField) offsetTables(hx, hy int) (hi, lo []float64) {
	w, cell := 2*hx+1, f.grid.Cell
	hi = make([]float64, w*(2*hy+1))
	lo = make([]float64, len(hi))
	for dy := -hy; dy <= hy; dy++ {
		for dx := -hx; dx <= hx; dx++ {
			gapX := float64(max(abs(dx)-1, 0)) * cell
			gapY := float64(max(abs(dy)-1, 0)) * cell
			maxX := float64(abs(dx)+1) * cell
			maxY := float64(abs(dy)+1) * cell
			i := (dy+hy)*w + dx + hx
			hi[i] = gainAt(f.params, math.Sqrt(gapX*gapX+gapY*gapY))
			lo[i] = gainAt(f.params, math.Sqrt(maxX*maxX+maxY*maxY))
		}
	}
	return hi, lo
}

// buildSuperTables precomputes the coarse-level bound gains per (cell
// sub-position, supercell offset) pair: hi at the closest rect-to-rect
// distance, lo at the farthest. The geometry is translation-invariant, so
// the rects are laid out relative to the listener cell's supercell origin.
// Only supercells outside the listener's 3×3 supercell block are read, and
// those are at least superSide−1 cells away (never +Inf).
func (f *SparseField) buildSuperTables() {
	f.sodx, f.sody = 2*f.nsx-1, 2*f.nsy-1
	f.superHi = make([]float64, superSide*superSide*f.sodx*f.sody)
	f.superLo = make([]float64, len(f.superHi))
	cell := f.grid.Cell
	sw := float64(superSide) * cell
	for suby := 0; suby < superSide; suby++ {
		for subx := 0; subx < superSide; subx++ {
			ax0 := float64(subx) * cell
			ay0 := float64(suby) * cell
			base := (suby*superSide + subx) * f.sodx * f.sody
			for dsy := -(f.nsy - 1); dsy <= f.nsy-1; dsy++ {
				row := base + (dsy+f.nsy-1)*f.sodx
				for dsx := -(f.nsx - 1); dsx <= f.nsx-1; dsx++ {
					qx0 := float64(dsx) * sw
					qy0 := float64(dsy) * sw
					dmin2, dmax2 := rectRectDist2(ax0, ay0, ax0+cell, ay0+cell, qx0, qy0, qx0+sw, qy0+sw)
					i := row + dsx + f.nsx - 1
					f.superHi[i] = gainAt(f.params, math.Sqrt(dmin2))
					f.superLo[i] = gainAt(f.params, math.Sqrt(dmax2))
				}
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
	cellOf := f.grid.CellOf
	for _, v := range txs {
		c := cellOf[v]
		if s.cellEnd[c] == 0 {
			s.dirty = append(s.dirty, c)
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
		c := cellOf[v]
		s.cellTx[s.cellEnd[c]] = int32(v)
		s.cellEnd[c]++
	}
}

// superOf returns the supercell index of grid cell c.
func (f *SparseField) superOf(c int) int {
	nx := f.grid.NX
	return (c/nx/superSide)*f.nsx + (c%nx)/superSide
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
		total := cs.mark(transmitters)
		if listeners == nil && total*enumDivisor <= count {
			listeners = cs.gather()
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
		if cs != nil && cs.skip(u) {
			continue
		}
		if v, ok := f.smallCheck(u, transmitters); ok {
			dst = append(dst, Reception{Receiver: u, Sender: v})
		}
	}
	return dst, nil
}

// scanAcc carries the window scan of one grid-path listener: the exact sum
// over every transmitter of its ±span window, the strongest of them and
// whether another ties it.
type scanAcc struct {
	nearTotal, best float64
	bestV           int
	tied            bool
}

// decide applies the SINR decision chain to one listener's exact window sums:
// the zero-tail certain-no, the cell's cached out-of-window bound pair
// (certain-no on lo, then certain-yes on hi; fetched lazily — most listeners
// exit before needing it), the exact out-of-window walk, and — only within
// certSlack of the threshold or on an exact gain tie — the dense-order exact
// fallback. A transmitter outside the window is farther than
// windowReach·Range, so its gain is below β·noise and can neither be the
// sender nor tie the best. Window gains may differ from the dense
// precompute by ULPs (squared-distance arithmetic instead of Hypot);
// certSlack keeps such noise from ever deciding a reception, and the exact
// fallback recomputes dense-identically.
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
	hi, lo := f.cellTailBounds(f.grid.CellOf[u])
	if certNo(best, beta*(noise+a.nearTotal+lo-best)) {
		return -1, false
	}
	if !a.tied && certYes(best, beta*(noise+a.nearTotal+hi-best)) {
		return a.bestV, true
	}
	return f.settle(u, txs, best, a.nearTotal+f.outTail(u), a.bestV, a.tied)
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

// window returns the ±span cell box of listener cell c, clipped to the grid.
func (f *SparseField) window(c int) (xlo, xhi, ylo, yhi int) {
	nx, ny := f.grid.NX, f.grid.NY
	cx, cy := c%nx, c/nx
	return max(cx-f.span, 0), min(cx+f.span, nx-1), max(cy-f.span, 0), min(cy+f.span, ny-1)
}

// outTail returns the exact aggregate gain at listener u (never a
// transmitter on the grid path) from all bucketed transmitters outside its
// cell's ±span window — one pass over the dirty cells, skipping the window
// (whose members the scan already summed). Listeners of the same cell share
// the window box, so on sequential rounds the out-of-window cell list is
// derived once per (box, round) and reused; the gain sum itself is per
// listener either way, and its cell order matches the dirty order exactly,
// so the cached walk is bit-identical to the plain one.
func (f *SparseField) outTail(u int) float64 {
	s := f.scr
	p := f.pos[u]
	wxlo, wxhi, wylo, wyhi := f.window(int(f.grid.CellOf[u]))
	nx := f.grid.NX
	outside := func(c int) bool {
		cx, cy := c%nx, c/nx
		return cx < wxlo || cx > wxhi || cy < wylo || cy > wyhi
	}
	cells := s.dirty
	if s.outSeq {
		box := [4]int32{int32(wxlo), int32(wxhi), int32(wylo), int32(wyhi)}
		if s.outStamp != s.epoch || s.outBox != box {
			s.outCells = s.outCells[:0]
			for _, ci := range s.dirty {
				if outside(int(ci)) {
					s.outCells = append(s.outCells, ci)
				}
			}
			s.outBox, s.outStamp = box, s.epoch
		}
		cells = s.outCells
	}
	var tail float64
	for _, ci := range cells {
		c := int(ci)
		if !s.outSeq && !outside(c) {
			continue
		}
		for k := s.cellStart[c]; k < s.cellEnd[c]; k++ {
			tail += gainFromDist2(f.params, geom.Dist2(f.pos[s.cellTx[k]], p))
		}
	}
	return tail
}

// cellTailBounds returns the bounds on the interference from outside the
// ±span window of listener cell c for the current round, computing and
// caching them on first use. Safe for concurrent workers: a cell may be
// computed redundantly, but the value is deterministic, and the epoch stamp
// is only published after the bits.
func (f *SparseField) cellTailBounds(c int32) (hi, lo float64) {
	s := f.scr
	if atomic.LoadInt64(&s.tailStamp[c]) == s.epoch {
		return math.Float64frombits(atomic.LoadUint64(&s.cellTail[c])),
			math.Float64frombits(atomic.LoadUint64(&s.cellTailLo[c]))
	}
	hi, lo = f.computeCellTail(int(c))
	atomic.StoreUint64(&s.cellTail[c], math.Float64bits(hi))
	atomic.StoreUint64(&s.cellTailLo[c], math.Float64bits(lo))
	atomic.StoreInt64(&s.tailStamp[c], s.epoch)
	return hi, lo
}

// fineDirtyCutoff selects the iteration strategy of computeCellTail: below
// it the round's occupied-cell list is walked (cheap in the many
// low-density rounds), at or above it the 3×3-supercell block is swept
// directly.
const fineDirtyCutoff = 128

// computeCellTail bounds the aggregate interference, at any point of
// listener cell c, from the transmitters in cells outside c's ±span window.
// Every such cell contributes its transmitter count times the gain at its
// closest point (hi) and at its farthest point (lo), so lo ≤ the exact
// out-of-window sum (outTail) ≤ hi for every listener of c, up to rounding.
//
// Sparse rounds walk the occupied-cell list through the grid-wide offset
// tables. Dense rounds use two levels: individual cells inside c's 3×3
// supercell block through nearHi/nearLo, whole supercells beyond it through
// the sub-position tables (the window lies inside the block, see
// windowReach, so no supercell reaches into it).
func (f *SparseField) computeCellTail(c int) (hi, lo float64) {
	scr := f.scr
	nx, ny := f.grid.NX, f.grid.NY
	cx, cy := c%nx, c/nx
	span := f.span
	if len(scr.dirty) < fineDirtyCutoff && f.gridHi != nil {
		// The dirty list is built deterministically per round, so redundant
		// concurrent recomputation still stores identical bits.
		tbase := (ny-1-cy)*f.godx + nx - 1 - cx
		for _, ci := range scr.dirty {
			cc := int(ci)
			gx, gy := cc%nx, cc/nx
			if gx >= cx-span && gx <= cx+span && gy >= cy-span && gy <= cy+span {
				continue
			}
			cnt := float64(scr.cellEnd[cc] - scr.cellStart[cc])
			ti := tbase + gy*f.godx + gx
			hi += cnt * f.gridHi[ti]
			lo += cnt * f.gridLo[ti]
		}
		return hi, lo
	}

	sx, sy := cx/superSide, cy/superSide
	bx0, by0 := max((sx-1)*superSide, 0), max((sy-1)*superSide, 0)
	bx1, by1 := min((sx+2)*superSide-1, nx-1), min((sy+2)*superSide-1, ny-1)
	for gy := by0; gy <= by1; gy++ {
		base := gy * nx
		trow := (gy - cy + fineHalf) * fineDim
		inRow := gy >= cy-span && gy <= cy+span
		for gx := bx0; gx <= bx1; gx++ {
			cc := base + gx
			cnt := float64(scr.cellEnd[cc] - scr.cellStart[cc])
			if cnt == 0 || (inRow && gx >= cx-span && gx <= cx+span) {
				continue
			}
			ti := trow + gx - cx + fineHalf
			hi += cnt * f.nearHi[ti]
			lo += cnt * f.nearLo[ti]
		}
	}

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
	}
	return hi, lo
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
