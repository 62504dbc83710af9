package sinr

import (
	"math"
	"runtime"
	"sync"

	"dcluster/internal/geom"
)

// smallTxCutoff: transmitter sets at or below this size are decided by a
// direct scan of the whole set (smallCheck, certified in the squared-distance
// domain) after transmitter-centric listener pruning; larger sets take the
// grid sweep (deliverAccum). On all-listener rounds the sweep is the faster
// path from 24 transmitters up (BenchmarkDeliverTx sparse rows, each |txs|
// forced through both paths, min of 7 interleaved runs, 2 vCPUs, direct vs
// grid in ms at n=4096: 0.21/0.17 at 24, 0.76/0.38 at 48, 1.03/0.45 at 64),
// but protocol rounds mostly listen at few nodes. At run level
// (cluster-disk-512-sparse, seed 2, interleaved `bench -workload` runs at
// -seconds 5, 2 vCPUs, run_s medians), with the two-nearest direct scan:
// 64 read 0.317 against 0.316 s at 48 (5 pairs); 96 read 0.299 against
// 0.314 s (−4.9%, 7 of 8 pairs, one tie) and `dclust -algo cluster -n 2000
// -engine sparse` 3.49–3.75 against 3.56–3.99 s wall (3 pairs, identical
// result lines). 96 is not taken: a 64-transmitter all-listener round then
// takes the direct scan at 0.76 against 0.42 ms (n=4096; 1.14 against 0.64
// ms at n=16384, min of 5), which the CI gate's BenchmarkDeliverTx txs=64
// rows would flag. Before the two-nearest scan, 24 read +3–11% and 32
// +0–11% run_s against 48.
const smallTxCutoff = 48

// parallelCutoff is the minimum number of nodes before the accumulating
// path spreads its cell rows over worker goroutines; below it the goroutine
// overhead exceeds the work.
const parallelCutoff = 256

// windowReach is the reach of a grid-path listener's exact window in
// transmission ranges: the window spans ±span cells around the listener's
// cell, span = int(windowReach·Range/cell)+1, so every transmitter outside
// it is farther than windowReach·Range from any point of the cell. The cell
// side is at least Range, hence 1 ≤ span ≤ 3.
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
//     directly per listener in the squared-distance domain (smallCheck):
//     one distance pass finds the two nearest transmitters, whose gains
//     alone certify most "no"s, and only the remaining listeners sum every
//     gain;
//   - every larger round buckets the transmitters into the cells of the
//     field's spatial grid and sweeps the listener cells (deliverAccum,
//     accum.go): each cell derives its ±span window once, its listeners sum
//     every window transmitter exactly, and only the transmitters outside
//     the window are bounded: a ring walk over a summed-area table of the
//     round's per-cell counts weights each Chebyshev ring of cells by its
//     closest and farthest gain (computeCellTail), and when that pair cannot
//     decide, the out-of-window transmitters are summed exactly too
//     (outTail). The pair and the cells that walk reads are computed at most
//     once per listener cell and round, while the sweep visits the cell.
//
// Either way a reception is granted or denied on the fast sums only when
// the decision clears the threshold by the certSlack margin (under the
// worst-case out-of-window bound on the grid path); anything closer falls
// back to the exact dense-order scan. Decisions therefore always match the
// dense engine. The grid path sweeps its cell rows in one stripe, or on
// fields of at least parallelCutoff nodes in up to GOMAXPROCS stripes, the
// first on the caller's goroutine; parallelism across rounds comes from
// sessions (see Session).
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

	span int // listener window half-width in cells (see windowReach)

	// Static per-offset member gain bounds over a listener cell's window: all
	// grid cells are congruent, so the min/max distance between two cells
	// depends only on their offset. nearHi is the gain at the minimum
	// distance (+Inf at touching offsets), nearLo at the maximum; index
	// (dy+span)·(2·span+1) + (dx+span). The quick tiers weight them by the
	// transmitter counts of the window's cells.
	nearHi []float64
	nearLo []float64

	// Static per-ring gain bounds beyond the window: a cell at Chebyshev
	// offset d from the listener cell is at least (d−1)·cell and at most
	// √2·(d+1)·cell away from any of its points, so ringHi[d] and ringLo[d]
	// are the gains at those distances. Entries d ≤ span are unused.
	ringHi []float64
	ringLo []float64

	// rangeQ2 is the squared-distance cutoff of the candidate ball: any
	// transmitter whose gain could reach the β·noise reception floor (within
	// the certSlack margin) lies within it, so a scan confined to
	// d² ≤ rangeQ2 finds every possible sender candidate exactly. The grid
	// sweep's quick pass and the direct scan's nearestPair both skip by it.
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

	// sat is the round's summed-area table of per-cell transmitter counts:
	// sat[y·(NX+1)+x] counts the transmitters in cells [0,x)×[0,y), so any
	// cell box's count is four lookups (boxCount).
	sat []int32

	// cand is the transmitter-centric candidate scratch (cell stamps and the
	// gathered listener buffer).
	cand *candScratch

	// Grid-path state (see accum.go): per-listener round outcomes behind
	// an epoch stamp, the listener-restriction bitmap, one scratch per
	// stripe of listener-cell rows (stripe 0 is the caller's; a one-stripe
	// round uses nothing else), and the join of stripes 1.. . Out-of-window
	// bounds are not kept here: they are state of the listener cell a stripe
	// is visiting (cellTail).
	accSender []int32
	accStamp  []int64
	epoch     int64
	isL       []bool
	stripes   []gridStripe
	wg        sync.WaitGroup
}

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
	f.span = int(windowReach*params.Range()/g.Cell) + 1
	// gain(d) ≥ β·noise·(1−certSlack) ⟺ d² ≤ range²·(1−certSlack)^(−2/α):
	// the ball the quick certain-no scan must cover exactly.
	f.rangeQ2 = params.Range() * params.Range() * math.Pow(1-certSlack, -2/params.Alpha)
	f.nearHi, f.nearLo = f.offsetTables(f.span)
	f.ringHi = make([]float64, max(g.NX, g.NY))
	f.ringLo = make([]float64, len(f.ringHi))
	for d := f.span + 1; d < len(f.ringHi); d++ {
		f.ringHi[d] = gainAt(params, float64(d-1)*g.Cell)
		f.ringLo[d] = gainAt(params, math.Sqrt2*float64(d+1)*g.Cell)
	}
	f.scr = f.newScratch()
	return f, nil
}

// newScratch allocates a zeroed per-session scratch sized to the grid.
func (f *SparseField) newScratch() *sparseScratch {
	side := 2*f.span + 1
	cells := f.grid.NX * f.grid.NY
	return &sparseScratch{
		cellStart: make([]int32, cells),
		cellEnd:   make([]int32, cells),
		isTx:      make([]bool, f.n),
		sat:       make([]int32, (f.grid.NX+1)*(f.grid.NY+1)),
		cand:      newCandScratch(f.grid),
		accSender: make([]int32, f.n),
		accStamp:  make([]int64, f.n),
		isL:       make([]bool, f.n),
		stripes: []gridStripe{{
			win:  make([]winCell, 0, side*side),
			outw: make([]winCell, 0, side*side),
			d2q:  make([]float64, 0, 64),
		}},
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
// every cell offset |dx|, |dy| ≤ h: hi at the minimum distance between the
// cells (+Inf at touching offsets), lo at the maximum. Index
// (dy+h)·(2h+1) + (dx+h).
func (f *SparseField) offsetTables(h int) (hi, lo []float64) {
	w, cell := 2*h+1, f.grid.Cell
	hi = make([]float64, w*w)
	lo = make([]float64, len(hi))
	for dy := -h; dy <= h; dy++ {
		for dx := -h; dx <= h; dx++ {
			gapX := float64(max(abs(dx)-1, 0)) * cell
			gapY := float64(max(abs(dy)-1, 0)) * cell
			maxX := float64(abs(dx)+1) * cell
			maxY := float64(abs(dy)+1) * cell
			i := (dy+h)*w + dx + h
			hi[i] = gainAt(f.params, math.Sqrt(gapX*gapX+gapY*gapY))
			lo[i] = gainAt(f.params, math.Sqrt(maxX*maxX+maxY*maxY))
		}
	}
	return hi, lo
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
// each cell's end offset while cellStart holds its start. It then fills the
// summed-area table of the per-cell counts.
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
	for _, c := range s.dirty {
		cnt := s.cellEnd[c]
		s.cellStart[c] = sum
		s.cellEnd[c] = sum // placement cursor
		sum += cnt
	}
	for _, v := range txs {
		c := cellOf[v]
		s.cellTx[s.cellEnd[c]] = int32(v)
		s.cellEnd[c]++
	}
	nx, w := f.grid.NX, f.grid.NX+1
	for y := 0; y < f.grid.NY; y++ {
		var row int32
		for x := 0; x < nx; x++ {
			c := y*nx + x
			row += s.cellEnd[c] - s.cellStart[c]
			s.sat[(y+1)*w+x+1] = s.sat[y*w+x+1] + row
		}
	}
}

// resetBuckets clears the per-round CSR state touched by bucketTx.
func (f *SparseField) resetBuckets() {
	s := f.scr
	for _, c := range s.dirty {
		s.cellStart[c] = 0
		s.cellEnd[c] = 0
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
	// Transmitter-centric pruning: listeners outside the cells around the
	// transmitters cannot receive (see txcentric.go).
	listeners, cs := s.cand.prune(transmitters, listeners, f.n)
	count := f.n
	if listeners != nil {
		count = len(listeners)
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
		if s.isTx[u] || (cs != nil && cs.skip(u)) {
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
// the zero-tail certain-no, its cell's out-of-window bound pair (certain-no
// on lo, then certain-yes on hi), the exact walk over the cell's
// out-of-window cells, and — only within certSlack of the threshold or on an
// exact gain tie — the dense-order exact fallback. The pair and the cell
// list come from the cell's tail state t, filled on first use.
// A transmitter outside the window is farther than windowReach·Range, so
// its gain is below β·noise and can neither be the sender nor tie the best.
// Window gains may differ from the dense precompute by ULPs
// (squared-distance arithmetic instead of Hypot); certSlack keeps such noise
// from ever deciding a reception, and the exact fallback recomputes
// dense-identically.
func (f *SparseField) decide(u int, txs []int, a *scanAcc, t *cellTail) (int, bool) {
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
	hi, lo := f.bounds(t)
	if certNo(best, beta*(noise+a.nearTotal+lo-best)) {
		return -1, false
	}
	if !a.tied && certYes(best, beta*(noise+a.nearTotal+hi-best)) {
		return a.bestV, true
	}
	if !t.listed {
		t.out, t.listed = f.outCells(t.c, t.out), true
	}
	return f.settle(u, txs, best, a.nearTotal+f.outTail(u, t.out), a.bestV, a.tied)
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

// outCells appends to dst the round's dirty cells outside listener cell c's
// ±span window, in dirty order.
func (f *SparseField) outCells(c int, dst []int32) []int32 {
	xlo, xhi, ylo, yhi := f.window(c)
	nx := f.grid.NX
	for _, ci := range f.scr.dirty {
		if x, y := int(ci)%nx, int(ci)/nx; x < xlo || x > xhi || y < ylo || y > yhi {
			dst = append(dst, ci)
		}
	}
	return dst
}

// outTail returns the exact aggregate gain at listener u (never a
// transmitter on the grid path) from the bucketed transmitters of the cells
// out, the dirty cells outside u's window (outCells), whose members the
// window scan did not sum.
func (f *SparseField) outTail(u int, out []int32) float64 {
	s, p := f.scr, f.pos[u]
	var tail float64
	for _, c := range out {
		for k := s.cellStart[c]; k < s.cellEnd[c]; k++ {
			tail += gainFromDist2(f.params, geom.Dist2(f.pos[s.cellTx[k]], p))
		}
	}
	return tail
}

// boxCount returns the round's transmitter count in the cells at Chebyshev
// offset ≤ d from cell (cx, cy), clipped to the grid.
func (f *SparseField) boxCount(cx, cy, d int) int32 {
	nx, ny, w, sat := f.grid.NX, f.grid.NY, f.grid.NX+1, f.scr.sat
	x0, x1 := max(cx-d, 0), min(cx+d+1, nx)
	y0, y1 := max(cy-d, 0), min(cy+d+1, ny)
	return sat[y1*w+x1] - sat[y0*w+x1] - sat[y1*w+x0] + sat[y0*w+x0]
}

// computeCellTail bounds the aggregate interference, at any point of
// listener cell c, from the transmitters in cells outside c's ±span window.
// It walks the Chebyshev rings d = span+1, span+2, … around c, counting each
// ring's transmitters as the difference of two box counts, and weights the
// count by ringHi[d] (hi) and ringLo[d] (lo); the walk stops at the ring
// that holds the round's last transmitter. So lo ≤ the exact out-of-window
// sum (outTail) ≤ hi for every listener of c, up to rounding, and the cost
// is O(rings), independent of how many cells the round occupies.
func (f *SparseField) computeCellTail(c int) (hi, lo float64) {
	g := f.grid
	total := f.scr.sat[len(f.scr.sat)-1]
	cx, cy := c%g.NX, c/g.NX
	inside := f.boxCount(cx, cy, f.span)
	for d := f.span + 1; inside < total; d++ {
		next := f.boxCount(cx, cy, d)
		if cnt := float64(next - inside); cnt > 0 {
			hi += cnt * f.ringHi[d]
			lo += cnt * f.ringLo[d]
		}
		inside = next
	}
	return hi, lo
}

// gainFromDist2 is the received-power formula on a squared distance — the
// hot-path variant that skips Hypot. Equal to gainAt(p, √d2) up to ULPs, and
// monotone non-increasing in d2 at α=3 and α=4: sqrt, products and the
// quotient are correctly rounded, so they never reverse an order. Other
// exponents take a helper kept out of line, so that this function stays
// small enough for the compiler to inline into the scans.
func gainFromDist2(p Params, d2 float64) float64 {
	if p.Alpha == 3 {
		return p.Power / (d2 * math.Sqrt(d2))
	}
	return gainFromDist2Slow(p, d2)
}

//go:noinline
func gainFromDist2Slow(p Params, d2 float64) float64 {
	if p.Alpha == 4 {
		return p.Power / (d2 * d2)
	}
	return gainAt(p, math.Sqrt(d2))
}

// smallCheck is the direct scan of small rounds, certified in the
// squared-distance domain, in three steps:
//
//  1. One distance scan (nearestPair) visits each transmitter once. It finds
//     the first transmitter inside the candidate ball (d² ≤ rangeQ2); with
//     none, every gain is below βN(1−certSlack), hence below βN even after
//     rounding, and u hears nothing. From that transmitter on, it keeps the
//     nearest and second-nearest squared distances d1 ≤ d2 and the nearest
//     transmitter, without a data-dependent branch. A d1 of zero (u itself,
//     or a transmitter at u's position) goes to exactCheck, which decides it
//     as the dense engine's Inf−Inf NaN does.
//  2. The nearest-pair exit. The gain is monotone in d² (up to ULPs at an
//     α other than 3 or 4, which certSlack covers), and the transmitters
//     the scan passed before the ball lie beyond it, so g(d1) is the
//     strongest signal and the interference is at least g(d2). Since β > 1,
//     u hears nothing when g(d1) misses β·(N + g(d2)), whatever else
//     transmits; certNo takes that "no" before any other gain is computed.
//  3. Otherwise one pass without a branch sums every gain in txs order, and
//     settle decides with best = g(d1), the nearest transmitter as sender
//     and a tie when g(d2) == g(d1).
//
// The result is always exactCheck's. Gains here differ from the dense
// engine's Hypot gains by ULPs, which the certSlack margin of certNo and
// certYes absorbs. The nearest transmitter can differ from the dense
// engine's strict-max sender only on an exact gain tie, and settle never
// certifies a "yes" on a tie: it hands the listener to exactCheck. A
// transmitter the scan passed before the ball cannot tie either: its gain is
// below βN(1−certSlack), and a certified "yes" needs g(d1) above βN.
func (f *SparseField) smallCheck(u int, txs []int) (int, bool) {
	pos, params := f.pos, f.params
	p := pos[u]
	d1, d2, i1, ok := nearestPair(pos, txs, p, f.rangeQ2)
	if !ok {
		return -1, false
	}
	if d1 == 0 {
		return f.exactCheck(u, txs)
	}
	best, g2 := gainFromDist2(params, d1), gainFromDist2(params, d2)
	if certNo(best, params.Beta*(params.Noise+g2)) {
		return -1, false
	}
	var total float64
	for _, v := range txs {
		total += gainFromDist2(params, geom.Dist2(pos[v], p))
	}
	return f.settle(u, txs, best, total, txs[i1], g2 == best)
}

// nearestPair scans the transmitters txs from position p. It skips the
// leading transmitters beyond the candidate ball (d² > rangeQ2); ok is false
// when all of them are. From the first transmitter inside the ball on, it
// returns the smallest and second-smallest squared distance d1 ≤ d2, counted
// with multiplicity (two transmitters at the same distance give d1 == d2;
// d2 is +Inf without a second), and the index in txs of the first
// transmitter at d1. That loop compares math.Float64bits, whose integer
// order is the value order for d² ≥ 0, so the minima and the index compile
// to conditional moves. The skipped transmitters are never the nearest, but
// one may be nearer than d2.
func nearestPair(pos []geom.Point, txs []int, p geom.Point, rangeQ2 float64) (d1, d2 float64, i1 int, ok bool) {
	j := 0
	for j < len(txs) && geom.Dist2(pos[txs[j]], p) > rangeQ2 {
		j++
	}
	if j == len(txs) {
		return 0, 0, 0, false
	}
	m1, m2 := math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(1))
	for k := j; k < len(txs); k++ {
		b := math.Float64bits(geom.Dist2(pos[txs[k]], p))
		nearer := b < m1
		m2 = min(m2, max(b, m1))
		m1 = min(m1, b)
		if nearer {
			i1 = k
		}
	}
	return math.Float64frombits(m1), math.Float64frombits(m2), i1, true
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
