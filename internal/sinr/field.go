package sinr

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"dcluster/internal/geom"
)

func pow(x, a float64) float64 { return math.Pow(x, a) }

// Field is the dense SINR engine: a fixed set of node locations with
// precomputed pairwise received-power gains G[v][u] = P / d(v,u)^α.
// A Field answers "who received whom" queries for arbitrary transmitter
// sets; it performs no protocol logic.
//
// Every node has the same power, so the gains of a geometric field are
// symmetric: NewField computes each node pair once and mirrors it, in
// cache-sized tiles spread over GOMAXPROCS workers (see fillGains).
//
// The gain matrix costs 8·n² bytes and Deliver scans every transmitter per
// listener, so Field is the engine of choice up to a few thousand nodes:
// O(1) gain lookups, no per-round indexing overhead, and exact results by
// construction. Beyond that, use SparseField — the grid-bucketed engine with
// linear memory and parallel Deliver — which produces identical reception
// sets. Field is also the only engine accepting an explicit distance matrix
// (NewFieldFromDistances), which the lower-bound gadgets require to avoid
// floating-point absorption of the geometrically shrinking node gaps.
//
// Both Deliver cores (decide and deliverTransposed) find the strongest
// signal by comparing the gains' IEEE-754 bit patterns as unsigned integers,
// which compiles to conditional moves instead of a branch that mispredicts
// whenever the running maximum changes. For floats that are ≥ 0 and not NaN,
// +Inf included, that order is the value order. Every gain is such a float:
// Params.Validate admits only finite positive parameters, and distances are
// positive (a zero distance gives +Inf, never NaN).
type Field struct {
	params Params
	n      int
	gain   [][]float64  // gain[v][u]: received power at u from transmitter v
	pos    []geom.Point // nil for distance-matrix fields

	grid *geom.GridIndex // transmitter-centric listener index; nil without positions

	scratch []bool // reusable transmitter bitmap for Deliver
	cand    *candScratch

	// stop is the cooperative mid-round cancellation hook (see StopChecker);
	// nil when no run-scoped control is attached.
	stop func() error

	// Transposed-accumulation scratch (see deliverTransposed).
	accTot, accBest []float64
	accBestV        []int32
}

// NewField builds a field from explicit positions.
func NewField(params Params, pos []geom.Point) (*Field, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := len(pos)
	f := &Field{params: params, n: n, pos: append([]geom.Point(nil), pos...)}
	f.gain = make([][]float64, n)
	buf := make([]float64, n*n)
	for v := 0; v < n; v++ {
		f.gain[v] = buf[v*n : (v+1)*n]
	}
	fillGains(params, f.pos, buf, runtime.GOMAXPROCS(0))
	f.grid = geom.NewGridIndex(f.pos, params.Range())
	return f, nil
}

// gainTile is the side of the square tiles fillGains works in: a tile's
// scratch copy (8·128² bytes) stays in the core's cache between its
// computation and the two copies out of it. Fields below parallelFillCutoff
// nodes are filled by the calling goroutine alone.
const (
	gainTile           = 128
	parallelFillCutoff = 256
)

// fillGains fills the row-major n×n gain matrix buf (zeroed, n = len(pos))
// with gain[v][u] = gainAt(d(v,u)), computing each unordered pair once.
// Every tile (I, J) with I ≤ J is computed for u > v into a scratch tile,
// copied row by row into place and mirrored into tile (J, I). The mirror is
// bit-exact because IEEE subtraction is antisymmetric and Hypot takes
// absolute values, so Dist(a, b) == Dist(b, a). Tile row I goes to worker
// I mod workers, which balances the shrinking rows of the upper triangle;
// the entries each worker writes are disjoint. The diagonal stays 0.
func fillGains(params Params, pos []geom.Point, buf []float64, workers int) {
	n := len(pos)
	side := min(gainTile, n)
	tiles := (n + gainTile - 1) / gainTile
	fillTileRow := func(ti int, tile []float64) {
		v0, v1 := ti*gainTile, min((ti+1)*gainTile, n)
		for tj := ti; tj < tiles; tj++ {
			u0, u1 := tj*gainTile, min((tj+1)*gainTile, n)
			for v := v0; v < v1; v++ {
				t := tile[(v-v0)*side:]
				lo := max(u0, v+1)
				for u := lo; u < u1; u++ {
					t[u-u0] = gainAt(params, geom.Dist(pos[v], pos[u]))
				}
				if lo < u1 {
					copy(buf[v*n+lo:v*n+u1], t[lo-u0:u1-u0])
				}
			}
			for u := u0; u < u1; u++ {
				row := buf[u*n+v0 : u*n+min(v1, u)]
				for i := range row {
					row[i] = tile[i*side+u-u0]
				}
			}
		}
	}
	if n < parallelFillCutoff {
		workers = 1
	}
	workers = min(workers, tiles)
	work := func(w int) {
		tile := make([]float64, side*side)
		for ti := w; ti < tiles; ti += workers {
			fillTileRow(ti, tile)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0) // the calling goroutine is worker 0
	wg.Wait()
}

// NewFieldFromDistances builds a field from an explicit symmetric distance
// matrix (used by the lower-bound gadgets where coordinates would lose
// precision). dist[v][u] must be positive for u ≠ v and equal to dist[u][v].
func NewFieldFromDistances(params Params, dist [][]float64) (*Field, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := len(dist)
	f := &Field{params: params, n: n}
	f.gain = make([][]float64, n)
	buf := make([]float64, n*n)
	for v := 0; v < n; v++ {
		if len(dist[v]) != n {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrMismatchedSize, v, len(dist[v]), n)
		}
		f.gain[v] = buf[v*n : (v+1)*n]
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			if dist[v][u] <= 0 {
				return nil, fmt.Errorf("sinr: non-positive distance %v between %d and %d", dist[v][u], v, u)
			}
			if u < v && dist[v][u] != dist[u][v] {
				return nil, fmt.Errorf("sinr: asymmetric distances %v from %d to %d, %v back", dist[v][u], v, u, dist[u][v])
			}
			f.gain[v][u] = gainAt(params, dist[v][u])
		}
	}
	return f, nil
}

// gainAt is the shared received-power formula of both engines; the sparse
// engine evaluates it lazily in Deliver's inner loop, so the common integer
// path-loss exponents bypass math.Pow.
func gainAt(p Params, d float64) float64 {
	switch p.Alpha {
	case 3:
		return p.Power / (d * d * d)
	case 4:
		d2 := d * d
		return p.Power / (d2 * d2)
	}
	return p.Power / pow(d, p.Alpha)
}

// N returns the number of nodes in the field.
func (f *Field) N() int { return f.n }

// Params returns the model parameters.
func (f *Field) Params() Params { return f.params }

// Positions returns the node positions, or nil for distance-matrix fields.
func (f *Field) Positions() []geom.Point { return f.pos }

// Gain returns the received power at u from a transmission by v.
func (f *Field) Gain(v, u int) float64 { return f.gain[v][u] }

// Distance returns the metric distance between v and u, recovered from the
// gain for distance-matrix fields.
func (f *Field) Distance(v, u int) float64 {
	if v == u {
		return 0
	}
	if f.pos != nil {
		return geom.Dist(f.pos[v], f.pos[u])
	}
	return pow(f.params.Power/f.gain[v][u], 1/f.params.Alpha)
}

// Reception is a successful delivery in one round: Receiver decoded the
// message transmitted by Sender.
type Reception struct {
	Receiver, Sender int
}

// Deliver computes all successful receptions for one synchronous round with
// the given transmitter set. listeners selects which non-transmitting nodes
// are checked (nil = all nodes). A transmitting node never receives
// (half-duplex). Since β > 1, at most the strongest incoming signal can
// clear the threshold, so exactly one check per listener is needed.
//
// When the transmitter set is small relative to the listener count, Deliver
// is transmitter-centric: candidate listeners are enumerated from the grid
// cells around the transmitters (or, given an explicit listener slice,
// out-of-range listeners are skipped by one cell-stamp lookup each), so the
// round cost scales with the activity, not with n. The per-listener decision
// code is unchanged, so results are bit-identical to the full scan.
//
// The result slice is appended to dst (which may be nil) and returned, so
// hot loops can reuse capacity.
func (f *Field) Deliver(transmitters []int, listeners []int, dst []Reception) []Reception {
	if len(transmitters) == 0 {
		return dst
	}
	isTx := f.txScratch()
	for _, v := range transmitters {
		isTx[v] = true
	}
	dst, err := f.deliverMarked(transmitters, listeners, dst)
	for _, v := range transmitters {
		isTx[v] = false
	}
	if err != nil {
		// The scratch bitmap is already restored, so the session survives the
		// abort; the panic unwinds the execution through the run layer.
		abortDeliver(err)
	}
	return dst
}

// SetStopCheck installs the cooperative mid-round cancellation hook; see
// StopChecker.
func (f *Field) SetStopCheck(fn func() error) { f.stop = fn }

// deliverMarked is the Deliver core, entered with the transmitter bitmap set
// up. It returns a non-nil error (with the partial dst discarded by the
// caller's abort) when the stop hook trips between listener chunks.
func (f *Field) deliverMarked(transmitters []int, listeners []int, dst []Reception) ([]Reception, error) {
	isTx := f.scratch
	count := f.n
	if listeners != nil {
		count = len(listeners)
	}
	// Dense rounds — the checked listeners cover most of the field — run
	// transposed: per transmitter one sequential sweep over its gain row
	// accumulates every listener's interference total and strongest signal,
	// then one emission sweep applies the threshold. Same summation order
	// and comparisons as the per-listener scan (bit-identical results), but
	// sequential memory instead of one gathered column read per (listener,
	// transmitter) pair.
	if len(transmitters) >= 2 && 2*count > f.n {
		return f.deliverTransposed(transmitters, listeners, dst)
	}
	var cs *candScratch
	if f.grid != nil {
		listeners, cs = f.candScratch().prune(transmitters, listeners, f.n)
		if listeners != nil {
			count = len(listeners)
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
		if isTx[u] || (cs != nil && cs.skip(u)) {
			continue
		}
		if v, ok := f.decide(u, transmitters); ok {
			dst = append(dst, Reception{Receiver: u, Sender: v})
		}
	}
	return dst, nil
}

// deliverTransposed is the dense-round Deliver core: transmitters' gain
// rows are accumulated into per-listener totals/maxima (in transmitter
// order, matching the per-listener scan's float summation and first-wins
// argmax exactly), then the β threshold is applied in listener order. The
// caller has already marked isTx. The stop hook is polled once per sweep
// over the listeners (each sweep is O(n)).
//
// The first row initialises the accumulators. The rows after it are taken
// txBlock at a time, so tot, best and bestV are loaded and stored once per
// block instead of once per row. Per listener, the block's gains g0..g3 are
// read from its four rows and added as tot[u] + g0 + g1 + g2 + g3. Go
// evaluates that left to right, so the rounded total is the one four
// separate sweeps produce, term for term; grouping the block's gains first
// would change it. The running best then takes four strict > steps on bit
// patterns (see Field), in registers and with conditional moves, in
// transmitter order, so the first of equal gains still wins. The 1–3 rows
// left over take the single-row sweep, which branches: a branch-free single
// row, storing all three arrays for every pair, measured slower than the
// branchy one (BenchmarkDeliver/dense n=2048, min of 6: 0.77 → 1.15 ms).
func (f *Field) deliverTransposed(transmitters []int, listeners []int, dst []Reception) ([]Reception, error) {
	n := f.n
	if f.accTot == nil {
		f.accTot = make([]float64, n)
		f.accBest = make([]float64, n)
		f.accBestV = make([]int32, n)
	}
	tot, best, bestV := f.accTot[:n], f.accBest[:n], f.accBestV[:n]
	if f.stop != nil {
		if err := f.stop(); err != nil {
			return dst, err
		}
	}
	// The first transmitter initialises the accumulators, so no clearing
	// pass is needed between rounds.
	row, v32 := f.gain[transmitters[0]][:n], int32(transmitters[0])
	for u, g := range row {
		tot[u] = g
		best[u] = g
		bestV[u] = v32
	}
	t := 1
	for ; t+txBlock <= len(transmitters); t += txBlock {
		if f.stop != nil {
			if err := f.stop(); err != nil {
				return dst, err
			}
		}
		blk := transmitters[t : t+txBlock]
		r0, r1, r2, r3 := f.gain[blk[0]][:n], f.gain[blk[1]][:n], f.gain[blk[2]][:n], f.gain[blk[3]][:n]
		v0, v1, v2, v3 := int32(blk[0]), int32(blk[1]), int32(blk[2]), int32(blk[3])
		for u := range n {
			g0, g1, g2, g3 := r0[u], r1[u], r2[u], r3[u]
			tot[u] = tot[u] + g0 + g1 + g2 + g3
			bb, bv := math.Float64bits(best[u]), bestV[u]
			if b := math.Float64bits(g0); b > bb {
				bb, bv = b, v0
			}
			if b := math.Float64bits(g1); b > bb {
				bb, bv = b, v1
			}
			if b := math.Float64bits(g2); b > bb {
				bb, bv = b, v2
			}
			if b := math.Float64bits(g3); b > bb {
				bb, bv = b, v3
			}
			best[u] = math.Float64frombits(bb)
			bestV[u] = bv
		}
	}
	for _, v := range transmitters[t:] {
		if f.stop != nil {
			if err := f.stop(); err != nil {
				return dst, err
			}
		}
		row, v32 := f.gain[v][:n], int32(v)
		for u, g := range row {
			tot[u] += g
			if g > best[u] {
				best[u] = g
				bestV[u] = v32
			}
		}
	}
	isTx := f.scratch
	beta, noise := f.params.Beta, f.params.Noise
	emit := func(u int) {
		if isTx[u] {
			return
		}
		b := best[u]
		if b > 0 && b >= beta*(noise+tot[u]-b) {
			dst = append(dst, Reception{Receiver: u, Sender: int(bestV[u])})
		}
	}
	if listeners == nil {
		for u := 0; u < n; u++ {
			emit(u)
		}
	} else {
		for _, u := range listeners {
			emit(u)
		}
	}
	return dst, nil
}

// txBlock is the number of gain rows deliverTransposed folds into one sweep
// over the listeners. The four lanes are written out in its block loop: four
// row pointers, four sender ids, the running best and its sender nearly fill
// amd64's general registers. Against the one-row-per-sweep loop it replaced
// (2 vCPUs, min of 7 interleaved rounds): BenchmarkDeliverTx/dense n=256
// txs=32 12.0 → 8.9 µs, n=1024 txs=16 26.2 → 18.8 µs; BenchmarkDeliver/dense
// n=2048 0.75 → 0.63 ms.
const txBlock = 4

// decide resolves listener u for one round: the winning sender, if any.
// The gain matrix is symmetric (geometric fields compute each pair once and
// mirror it; distance matrices are checked symmetric on construction), so
// u's incoming gains are read from row u — sequential memory — instead of
// one column element per transmitter row.
//
// The running best is kept as its IEEE bit pattern. Gains are ≥ 0 and never
// NaN, and for such floats the unsigned order of the bit patterns is the
// value order (see Field). So the strict > on bits is the strict > on gains,
// the first transmitter still wins an exact tie, and the update compiles to
// conditional moves: with a few transmitters in random order the running
// maximum changes at unpredictable points, which a branch mispredicts.
//
// It returns the strongest transmitter (the first on a tie; -1 when no gain
// is positive) and whether u receives it. decide is kept out of line: inlined
// into deliverMarked's listener loop, the running best and the loop index
// were spilled to the stack, and cluster-disk-256 ran about 2% slower. The
// call costs one-transmitter rounds, where the old branch never mispredicted:
// the BenchmarkDeliverTx/dense txs=1 rows read 4–16% slower than the inlined
// branchy scan, on rounds that take about 1% of a benchmark run.
//
//go:noinline
func (f *Field) decide(u int, transmitters []int) (int, bool) {
	var total float64
	var bb uint64 // bits of the best gain so far; 0 is the bits of +0
	bestV := -1
	row := f.gain[u]
	for _, v := range transmitters {
		g := row[v]
		total += g
		if gb := math.Float64bits(g); gb > bb {
			bb, bestV = gb, v
		}
	}
	best := math.Float64frombits(bb)
	return bestV, best >= f.params.Beta*(f.params.Noise+total-best)
}

// txScratch returns a reusable all-false scratch bitmap of size n.
func (f *Field) txScratch() []bool {
	if f.scratch == nil {
		f.scratch = make([]bool, f.n)
	}
	return f.scratch
}

// candScratch returns the session's transmitter-centric scratch.
func (f *Field) candScratch() *candScratch {
	if f.cand == nil {
		f.cand = newCandScratch(f.grid)
	}
	return f.cand
}

// Session returns a view of the field with its own Deliver scratch. The gain
// matrix, positions and grid index are shared (they are immutable after
// construction), so sessions are cheap and may Deliver concurrently with
// each other.
func (f *Field) Session() Engine {
	g := *f
	g.scratch = nil
	g.cand = nil
	g.accTot, g.accBest, g.accBestV = nil, nil, nil
	g.stop = nil
	return &g
}

// CommGraph returns adjacency lists of the communication graph: edges
// between nodes at distance ≤ (1−ε)·range.
func (f *Field) CommGraph() [][]int {
	rad := f.params.GraphRadius()
	adj := make([][]int, f.n)
	if f.pos != nil {
		return geom.CommGraph(f.pos, rad)
	}
	for v := 0; v < f.n; v++ {
		for u := 0; u < f.n; u++ {
			if u != v && f.Distance(v, u) <= rad {
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}
