package sinr

import (
	"fmt"
	"math/rand"
	"testing"

	"dcluster/internal/geom"
)

// Boundary tests for the far-field truncation machinery at exact threshold
// equality, plus the density-threshold dispatch of the accumulating path.
// Integer-lattice deployments make every coordinate, squared distance and
// power-of-two gain exactly representable, so pairwise distances land
// precisely ON the transmission range, the far radius and tie boundaries —
// the knife edges where the conservative bounds are forced into the exact
// residual and the dense-order fallback.

// latticePts builds a k×k integer lattice with unit spacing: neighbor
// distance exactly the transmission range (1 under DefaultParams), diagonal
// √2, and distance-2 pairs exactly on a far radius of 2.
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
// distances satisfy d² == far² exactly (the accept/reject boundary of the
// near scan) and gains tie exactly by symmetry (the tie fallback).
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
	// Far radius exactly 2: lattice pairs at offset (2,0)/(0,2) sit exactly
	// on the truncation boundary, and offsets (1,1)+(1,-1) produce exact
	// gain ties among interferers.
	if err := sparse.SetFarRadius(2); err != nil {
		t.Fatal(err)
	}
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
		for _, ov := range []int8{0, -1, 1} {
			sparse.pathOverride = ov
			got := sparse.Deliver(txs, nil, nil)
			if !sameReceptions(want, got) {
				t.Fatalf("trial %d override %d (|T|=%d): dense %d receptions != sparse %d",
					trial, ov, len(txs), len(want), len(got))
			}
		}
		sparse.pathOverride = 0
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

// TestBoundaryFarRadiusFloorEquality checks SetFarRadius at exactly the
// transmission range — the lowest legal value, where the near field
// degenerates to the reception range itself and everything beyond rides on
// the tail bounds and residual tiers.
func TestBoundaryFarRadiusFloorEquality(t *testing.T) {
	pts := latticePts(10)
	params := DefaultParams()
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.SetFarRadius(params.Range()); err != nil {
		t.Fatalf("far radius exactly at the range floor rejected: %v", err)
	}
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for v := range pts {
		all = append(all, v)
	}
	for _, ov := range []int8{0, -1, 1} {
		sparse.pathOverride = ov
		if want, got := dense.Deliver(all, nil, nil), sparse.Deliver(all, nil, nil); !sameReceptions(want, got) {
			t.Fatalf("override %d: dense %v != sparse %v", ov, want, got)
		}
	}
	sparse.pathOverride = 0
}

// TestSmallCheckMatchesExact pins the certified small-round scan to its
// knife-edge oracle: for every listener, smallCheck must return exactly what
// exactCheck returns. Lattices put distances exactly on the range and make
// gains tie exactly; the two-sender geometry has SINR == β exactly, which no
// certSlack margin can certify; uniform disks cover the ordinary mix at the
// transmitter counts the direct path serves.
func TestSmallCheckMatchesExact(t *testing.T) {
	// Sender at distance 1 (gain 8), interferer at distance 2 (gain 1):
	// 8 / (3 + 1) == β exactly, in Hypot and in squared-distance arithmetic.
	edge := Params{Alpha: 3, Beta: 2, Noise: 3, Power: 8, Eps: 0.25}
	rng := rand.New(rand.NewSource(13))
	lat := latticePts(9)
	centre := 4*9 + 4
	type smallCase struct {
		name   string
		params Params
		pts    []geom.Point
		txs    [][]int
	}
	cases := []smallCase{
		{"lattice", DefaultParams(), lat, [][]int{
			{centre},                    // solo: the 4 lattice neighbours sit at SINR == β
			{centre - 1, centre + 1},    // the centre hears an exact gain tie
			{centre - 9, centre + 9, 0}, // tie plus a far interferer
			{centre - 10, centre - 8, centre + 8, centre + 10}, // diagonal four-way tie
			pickDistinct(rng, len(lat), smallTxCutoff),
		}},
		{"sinr-equals-beta", edge, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(-2, 0)}, [][]int{
			{1, 2}, {2, 1}, {1},
		}},
	}
	for _, k := range []int{1, 2, smallTxCutoff} {
		pts := geom.UniformDisk(200, 3, int64(k))
		var sets [][]int
		for i := 0; i < 8; i++ {
			sets = append(sets, pickDistinct(rng, len(pts), k))
		}
		cases = append(cases, smallCase{fmt.Sprintf("disk/txs=%d", k), DefaultParams(), pts, sets})
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
			}
		}
		if yes == 0 {
			t.Errorf("%s: no listener receives; the case exercises only denials", c.name)
		}
	}
}

// TestUseAccumPathDispatch pins the density-threshold dispatch: the
// accumulating path engages exactly above smallTxCutoff transmitters AND at
// |txs|·accumDivisor ≥ listeners, including both equalities.
func TestUseAccumPathDispatch(t *testing.T) {
	cases := []struct {
		ntx, count int
		want       bool
	}{
		{smallTxCutoff, smallTxCutoff * accumDivisor, false},          // at the small-round cutoff: direct scan owns it
		{smallTxCutoff + 1, (smallTxCutoff + 1) * accumDivisor, true}, // first eligible count, threshold equality
		{100, 100*accumDivisor - 1, true},                             // just above the density threshold
		{100, 100 * accumDivisor, true},                               // exactly at it (≥, not >)
		{100, 100*accumDivisor + 1, false},                            // just below
		{1000, 1000, true},                                            // everyone transmits
		{0, 1000, false},
		{25, 1 << 20, false}, // dense tx set, vastly more listeners
	}
	for _, c := range cases {
		if got := useAccumPath(c.ntx, c.count); got != c.want {
			t.Errorf("useAccumPath(%d, %d) = %v, want %v", c.ntx, c.count, got, c.want)
		}
	}
}

// TestAccumDispatchEngages is the integration form: at a transmitter density
// just past the threshold the default dispatch and the forced accumulating
// path must agree with the forced per-listener path (so whichever the
// dispatch picked, it picked a correct one), and the listener-restricted
// form must agree too (the count side of the threshold).
func TestAccumDispatchEngages(t *testing.T) {
	n := 512
	pts := geom.UniformDisk(n, 4, 3)
	sparse, err := NewSparseField(DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	txs := pickDistinct(rng, n, n/accumDivisor+1) // just past the density threshold
	var some []int
	for v := 0; v < n; v += 2 {
		some = append(some, v)
	}
	for _, listeners := range [][]int{nil, some} {
		sparse.pathOverride = 0
		auto := sparse.Deliver(txs, listeners, nil)
		sparse.pathOverride = 1
		acc := sparse.Deliver(txs, listeners, nil)
		sparse.pathOverride = -1
		per := sparse.Deliver(txs, listeners, nil)
		sparse.pathOverride = 0
		if !sameReceptions(auto, acc) || !sameReceptions(auto, per) {
			t.Fatalf("path disagreement at the dispatch threshold (listeners=%v)", listeners != nil)
		}
	}
}
