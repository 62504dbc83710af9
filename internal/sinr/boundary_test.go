package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dcluster/internal/geom"
)

// Boundary tests for the grid sweep's window and bounds at exact threshold
// equality, plus the smallTxCutoff dispatch between the direct scan and the
// grid sweep.
// Integer-lattice deployments make every coordinate, squared distance and
// power-of-two gain exactly representable, so pairwise distances land
// precisely ON the transmission range, the window reach and tie boundaries,
// and every node sits on a cell corner — the knife edges where the
// conservative bounds are forced into the exact out-of-window walk and the
// dense-order fallback.

// latticePts builds a k×k integer lattice with unit spacing: neighbor
// distance exactly the transmission range (1 under DefaultParams), diagonal
// √2, and distance-2 pairs exactly at the window reach windowReach·Range.
func latticePts(k int) []geom.Point {
	pts := make([]geom.Point, 0, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	return pts
}

// TestBoundaryFarRadiusEquality pins engine equivalence when many member
// distances sit exactly at the window reach windowReach·Range (the radius
// the name refers to) and gains tie exactly by symmetry (the tie fallback).
func TestBoundaryFarRadiusEquality(t *testing.T) {
	const k = 12
	pts := latticePts(k)
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Lattice pairs at offset (2,0)/(0,2) sit exactly at the window reach,
	// and offsets (1,1)+(1,-1) produce exact gain ties among interferers.
	n := len(pts)
	rng := rand.New(rand.NewSource(8))
	sets := [][]int{
		nil, // filled below: all nodes
		pickDistinct(rng, n, n/2),
		pickDistinct(rng, n, n/4),
		pickDistinct(rng, n, smallTxCutoff+4),
	}
	for v := 0; v < n; v++ {
		sets[0] = append(sets[0], v)
	}
	// Every second node as checkerboard: maximal symmetry, maximal ties.
	var checker []int
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if (x+y)%2 == 0 {
				checker = append(checker, y*k+x)
			}
		}
	}
	sets = append(sets, checker)
	for trial, txs := range sets {
		want := dense.Deliver(txs, nil, nil)
		if got := sparse.Deliver(txs, nil, nil); !sameReceptions(want, got) {
			t.Fatalf("trial %d (|T|=%d): dense %d receptions != sparse %d",
				trial, len(txs), len(want), len(got))
		}
	}
}

// TestBoundaryRangeEqualitySolo pins the reception decision when the only
// link sits exactly at SINR == β: a solo sender at distance exactly 1 has
// gain 2 = β·Noise, so reception holds with equality and any conservative
// rounding in either direction flips the answer.
func TestBoundaryRangeEqualitySolo(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 5)}
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	want := dense.Deliver([]int{0}, nil, nil)
	got := sparse.Deliver([]int{0}, nil, nil)
	if !sameReceptions(want, got) {
		t.Fatalf("solo range-boundary: dense %v != sparse %v", want, got)
	}
	if len(want) != 1 || want[0] != (Reception{Receiver: 1, Sender: 0}) {
		t.Fatalf("SINR == β must decode (≥ comparison): got %v", want)
	}
}

// TestBoundaryFarRadiusFloorEquality runs a 10×10 lattice at the grid
// sweep's default window, once with every node transmitting (half duplex:
// nobody receives) and once with every fifth node listening: an interior
// listener's four neighbours all transmit from exactly the transmission
// range (the β·noise reception floor), and their gains tie exactly.
func TestBoundaryFarRadiusFloorEquality(t *testing.T) {
	const k = 10
	pts := latticePts(k)
	params := DefaultParams()
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	var all, most []int
	for v := range pts {
		all = append(all, v)
		if x, y := v%k, v/k; (x+2*y)%5 != 0 {
			most = append(most, v)
		}
	}
	for _, txs := range [][]int{all, most} {
		if want, got := dense.Deliver(txs, nil, nil), sparse.Deliver(txs, nil, nil); !sameReceptions(want, got) {
			t.Fatalf("|T|=%d: dense %v != sparse %v", len(txs), want, got)
		}
	}
}

// TestCellTailBoundsSound checks the out-of-window bound pair against the
// exact sum it bounds: after bucketing a round, every listener u of every
// cell c with nodes must satisfy lo ≤ outTail(u, outCells(c)) ≤ hi for
// (hi, lo) = computeCellTail(c), up to a 1e-12 relative tolerance for summation
// order. Fields with cell sides of 1, 2 and 4 ranges (window spans 3, 2
// and 1) are covered, a disk that packs several transmitters into a cell
// and a square that spreads them. Besides random rounds of two sizes, each
// field runs two built ones: a round confined to one listener cell's window,
// whose pair must be exactly (0, 0), and a round whose only transmitter
// outside the low corner cell's window is the far corner pin, which the
// ring walk reaches only at its last ring.
func TestCellTailBoundsSound(t *testing.T) {
	const n, tol = 1500, 1e-12
	params := DefaultParams()
	rng := rand.New(rand.NewSource(21))
	for _, k := range []float64{1, 2, 4} {
		side := 0.7 * k * params.Range() * (math.Sqrt(8*n+64) - 1)
		deployments := map[string][]geom.Point{
			"disk":   geom.UniformDisk(n, math.Sqrt(n/8), int64(k)),
			"square": geom.UniformSquare(n, side, int64(k)),
		}
		for name, base := range deployments {
			pts := withCornerPins(base, params.Range(), k)
			f, err := NewSparseField(params, pts)
			if err != nil {
				t.Fatal(err)
			}
			g := f.grid
			if g.Cell != k*params.Range() {
				t.Fatalf("k=%v %s: cell %v, want %v", k, name, g.Cell, k*params.Range())
			}
			bounded := 0
			// round buckets txs, checks every listener cell's pair against
			// outTail and returns the pair of cell probe.
			round := func(txs []int, probe int) (probeHi, probeLo float64) {
				f.bucketTx(txs)
				defer f.resetBuckets()
				for c := 0; c < g.NX*g.NY; c++ {
					members := g.Nodes[g.Start[c]:g.Start[c+1]]
					if len(members) == 0 {
						continue
					}
					hi, lo := f.computeCellTail(c)
					out := f.outCells(c, nil)
					if c == probe {
						probeHi, probeLo = hi, lo
					}
					for _, u := range members {
						exact := f.outTail(int(u), out)
						if lo > exact*(1+tol) || exact > hi*(1+tol) {
							t.Fatalf("k=%v %s |T|=%d cell %d listener %d: lo %v, exact %v, hi %v",
								k, name, len(txs), c, u, lo, exact, hi)
						}
						if lo > 0 {
							bounded++
						}
					}
				}
				return probeHi, probeLo
			}
			for _, ntx := range []int{60, n / 3} {
				for trial := 0; trial < 3; trial++ {
					round(pickDistinct(rng, n, ntx), -1)
				}
			}
			if bounded == 0 {
				t.Errorf("k=%v %s: no listener had a positive lower bound; the check is vacuous", k, name)
			}

			c := int(g.CellOf[0])
			if hi, lo := round(windowNodes(f, c), c); hi != 0 || lo != 0 {
				t.Errorf("k=%v %s: round inside cell %d's window: pair (%v, %v), want (0, 0)", k, name, c, hi, lo)
			}
			low, high := int(g.CellOf[len(pts)-2]), int(g.CellOf[len(pts)-1])
			d := max(abs(high%g.NX-low%g.NX), abs(high/g.NX-low/g.NX))
			if d != max(g.NX, g.NY)-1 {
				t.Fatalf("k=%v %s: corner pins %d rings apart on a %dx%d grid", k, name, d, g.NX, g.NY)
			}
			txs := append(windowNodes(f, low), len(pts)-1)
			if hi, lo := round(txs, low); hi != f.ringHi[d] || lo != f.ringLo[d] {
				t.Errorf("k=%v %s: far corner pin alone outside cell %d's window: pair (%v, %v), want ring %d's (%v, %v)",
					k, name, low, hi, lo, d, f.ringHi[d], f.ringLo[d])
			}
		}
	}
}

// windowNodes returns the nodes of listener cell c's ±span window.
func windowNodes(f *SparseField, c int) []int {
	g := f.grid
	xlo, xhi, ylo, yhi := f.window(c)
	var out []int
	for y := ylo; y <= yhi; y++ {
		for x := xlo; x <= xhi; x++ {
			cc := y*g.NX + x
			for _, v := range g.Nodes[g.Start[cc]:g.Start[cc+1]] {
				out = append(out, int(v))
			}
		}
	}
	return out
}

// TestSmallCheckMatchesExact pins the certified small-round scan to its
// knife-edge oracle: for every listener, smallCheck must return exactly what
// exactCheck returns, and nearestPair must return what sorting the squared
// distances gives. Lattices put distances exactly on the range and make
// gains tie exactly; the two-sender geometry has SINR == β exactly, which no
// certSlack margin can certify (with a second transmitter it is also the
// nearest-pair exit's equality edge); uniform disks cover the ordinary mix at
// the transmitter counts the direct path serves. Probes pin the nearest-pair
// exit on chosen listeners: it fires on two equidistant nearest
// transmitters, and it does not fire when β·(N + g₂) lies within 1e-10
// relative of g₁, on either side; a single transmitter has no second, and a
// listener inside txs is at distance zero, which goes to exactCheck.
func TestSmallCheckMatchesExact(t *testing.T) {
	// Sender at distance 1 (gain 8), interferer at distance 2 (gain 1):
	// 8 / (3 + 1) == β exactly, in Hypot and in squared-distance arithmetic.
	edge := Params{Alpha: 3, Beta: 2, Noise: 3, Power: 8, Eps: 0.25}
	rng := rand.New(rand.NewSource(13))
	lat := latticePts(9)
	centre := 4*9 + 4
	// probe pins the nearest pair of listener u in round txs[set]: whether
	// the exit fires, whether d1 == d2 (an exact tie), whether d2 is +Inf (no
	// second transmitter) and whether d1 is zero (u is in txs).
	type probe struct {
		u, set                  int
		exit, tie, single, zero bool
	}
	type smallCase struct {
		name   string
		params Params
		pts    []geom.Point
		txs    [][]int
		probes []probe
	}
	// Interferer distances that put β·(N + g₂) 7.5e-11 relative below and
	// above g₁ = 8 under edge: g₂ = 8/d³ with d = 2(1 ± 1e-10).
	below, above := 2*(1+1e-10), 2*(1-1e-10)
	cases := []smallCase{
		{"lattice", DefaultParams(), lat, [][]int{
			{centre},                    // solo: the 4 lattice neighbours sit at SINR == β
			{centre - 1, centre + 1},    // the centre hears an exact gain tie
			{centre - 9, centre + 9, 0}, // tie plus a far interferer
			{centre - 10, centre - 8, centre + 8, centre + 10}, // diagonal four-way tie
			pickDistinct(rng, len(lat), smallTxCutoff),
		}, []probe{
			{u: centre + 1, set: 0, single: true},
			{u: centre, set: 1, exit: true, tie: true},
			{u: centre, set: 2, exit: true, tie: true},
			{u: centre, set: 0, single: true, zero: true},
		}},
		{"sinr-equals-beta", edge, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(-2, 0)}, [][]int{
			{1, 2}, {2, 1}, {1},
		}, []probe{
			// {2, 1}: the scan passes the interferer before the ball, so
			// the pair has no second and the full sum decides.
			{u: 0, set: 0}, {u: 0, set: 1, single: true}, {u: 0, set: 2, single: true},
			{u: 1, set: 0, zero: true},
		}},
		// Two transmitters at d² = 0.25 exactly (gain 16 each) and one far:
		// the pair alone needs β·(1 + 16) = 34 > 16, so the exit fires.
		{"equidistant-nearest", DefaultParams(), []geom.Point{
			geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(0, -0.5), geom.Pt(3, 0),
		}, [][]int{{1, 2}, {3, 1, 2}, {1, 3}, {1}}, []probe{
			{u: 0, set: 0, exit: true, tie: true},
			{u: 0, set: 1, exit: true, tie: true},
			{u: 0, set: 3, single: true},
			{u: 2, set: 1, zero: true},
		}},
		// The nearest pair within 1e-10 relative of the threshold: too close
		// for the exit, so the full sum and exactCheck decide (yes below, no
		// above).
		{"pair-knife-edge", edge, []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(-below, 0), geom.Pt(0, above),
		}, [][]int{{1, 2}, {1, 3}, {3, 2, 1}}, []probe{
			{u: 0, set: 0}, {u: 0, set: 1},
		}},
	}
	for _, k := range []int{1, 2, smallTxCutoff} {
		pts := geom.UniformDisk(200, 3, int64(k))
		var sets [][]int
		for i := 0; i < 8; i++ {
			sets = append(sets, pickDistinct(rng, len(pts), k))
		}
		cases = append(cases, smallCase{name: fmt.Sprintf("disk/txs=%d", k), params: DefaultParams(), pts: pts, txs: sets})
	}
	for _, c := range cases {
		f, err := NewSparseField(c.params, c.pts)
		if err != nil {
			t.Fatal(err)
		}
		yes := 0
		for _, txs := range c.txs {
			for u := range c.pts {
				wv, wok := f.exactCheck(u, txs)
				gv, gok := f.smallCheck(u, txs)
				if gv != wv || gok != wok {
					t.Fatalf("%s: txs %v listener %d: smallCheck (%d, %v) != exactCheck (%d, %v)",
						c.name, txs, u, gv, gok, wv, wok)
				}
				if wok {
					yes++
				}
				checkNearestPair(t, c.name, f, u, txs)
			}
		}
		if yes == 0 {
			t.Errorf("%s: no listener receives; the case exercises only denials", c.name)
		}
		p := c.params
		for _, pr := range c.probes {
			txs := c.txs[pr.set]
			d1, d2, _, ok := nearestPair(f.pos, txs, f.pos[pr.u], f.rangeQ2)
			if !ok {
				t.Fatalf("%s: probe %+v: no transmitter in the candidate ball", c.name, pr)
			}
			best, g2 := gainFromDist2(p, d1), gainFromDist2(p, d2)
			need := p.Beta * (p.Noise + g2)
			if exit := !pr.zero && certNo(best, need); exit != pr.exit {
				t.Errorf("%s: probe %+v: exit %v (g1 %v, need %v)", c.name, pr, exit, best, need)
			}
			if (d1 == d2) != pr.tie || math.IsInf(d2, 1) != pr.single || (d1 == 0) != pr.zero {
				t.Errorf("%s: probe %+v: d1 %v, d2 %v", c.name, pr, d1, d2)
			}
			if c.name == "pair-knife-edge" && math.Abs(need/best-1) > 1e-10 {
				t.Errorf("%s: probe %+v: requirement %v is not within 1e-10 of g1 %v", c.name, pr, need, best)
			}
		}
	}
}

// checkNearestPair checks nearestPair(u, txs) against sorted squared
// distances: ok iff some transmitter lies in the candidate ball; then d1 is
// the smallest distance, i1 the first transmitter at it, and d2 the next
// distance, with multiplicity, among the transmitters from the first one in
// the ball on.
func checkNearestPair(t *testing.T, name string, f *SparseField, u int, txs []int) {
	t.Helper()
	p := f.pos[u]
	d1, d2, i1, ok := nearestPair(f.pos, txs, p, f.rangeQ2)
	j := 0
	for j < len(txs) && geom.Dist2(f.pos[txs[j]], p) > f.rangeQ2 {
		j++
	}
	if ok != (j < len(txs)) {
		t.Fatalf("%s: txs %v listener %d: ok %v, first in the ball at %d", name, txs, u, ok, j)
	}
	if !ok {
		return
	}
	rest := []float64{math.Inf(1)}
	first := -1
	for k, v := range txs[j:] {
		d := geom.Dist2(f.pos[v], p)
		rest = append(rest, d)
		if first < 0 || d < geom.Dist2(f.pos[txs[first]], p) {
			first = j + k
		}
	}
	sort.Float64s(rest)
	if d1 != rest[0] || d2 != rest[1] || i1 != first {
		t.Fatalf("%s: txs %v listener %d: nearestPair (%v, %v, %d), want (%v, %v, %d)",
			name, txs, u, d1, d2, i1, rest[0], rest[1], first)
	}
}

// TestAccumDispatchEngages pins the smallTxCutoff boundary against the
// dense engine: smallTxCutoff transmitters take the direct scan, one more
// takes the grid sweep (bucketing bumps the scratch epoch, the direct scan
// leaves it alone), and both agree with the dense engine for all listeners
// and for a listener subset. The last case restricts a grid round to more
// than 16 listeners per transmitter, where the sparse engine once switched
// to a separate per-listener grid path.
func TestAccumDispatchEngages(t *testing.T) {
	n := 1200
	pts := geom.UniformDisk(n, math.Sqrt(float64(n)/8), 3)
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	var half, most []int
	for v := 0; v < n; v++ {
		if v%2 == 0 {
			half = append(half, v)
		}
		if v%4 != 3 {
			most = append(most, v)
		}
	}
	if len(most) <= 16*(smallTxCutoff+1) {
		t.Fatalf("wide listener set has %d nodes, want more than %d", len(most), 16*(smallTxCutoff+1))
	}
	rng := rand.New(rand.NewSource(77))
	received := 0
	for _, c := range []struct {
		name   string
		ntx    int
		subset []int
	}{
		{"at the cutoff", smallTxCutoff, half},
		{"past the cutoff", smallTxCutoff + 1, half},
		{"past the cutoff, wide listener set", smallTxCutoff + 1, most},
	} {
		txs := pickDistinct(rng, n, c.ntx)
		for _, listeners := range [][]int{nil, c.subset} {
			before := sparse.scr.epoch
			got := sparse.Deliver(txs, listeners, nil)
			if grid := sparse.scr.epoch != before; grid != (c.ntx > smallTxCutoff) {
				t.Fatalf("%s: |T|=%d took the grid sweep = %v", c.name, c.ntx, grid)
			}
			want := dense.Deliver(txs, listeners, nil)
			if !sameReceptions(want, got) {
				t.Fatalf("%s (restricted=%v): dense %v != sparse %v", c.name, listeners != nil, want, got)
			}
			received += len(want)
		}
	}
	if received == 0 {
		t.Fatal("no listener received anything; the cases check nothing")
	}
}
