package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dcluster/internal/geom"
)

// equivTopologies generates the random deployments of the dense/sparse
// equivalence property: constant-density disks, multi-hop strips and clumpy
// Gaussian clusters, all the shapes the paper's experiments use.
func equivTopologies(n int, seed int64) map[string][]geom.Point {
	r := math.Sqrt(float64(n) / 8)
	if r < 2 {
		r = 2
	}
	return map[string][]geom.Point{
		"disk":   geom.UniformDisk(n, r, seed),
		"strip":  geom.Strip(n, 4*r, 1, seed),
		"clumps": geom.GaussianClusters(n, 1+n/64, 2*r, 0.3, seed),
	}
}

// TestPropertyDenseSparseEquivalence is the engine-equivalence property:
// for random topologies and random transmitter sets of widely varying
// density, Deliver must return the identical reception sequence (receivers,
// senders and order) on both engines.
func TestPropertyDenseSparseEquivalence(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024, 2048} {
		for name, pts := range equivTopologies(n, int64(n)) {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				params := DefaultParams()
				dense, err := NewField(params, pts)
				if err != nil {
					t.Fatal(err)
				}
				sparse, err := NewSparseField(params, pts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(n) * 31))
				// Transmitter regimes from a silent round through a lone
				// speaker and small fixed sets (the transmitter-centric
				// candidate paths) up to a full shout-down; grid and
				// direct-scan paths are both exercised (the cutover sits at
				// smallTxCutoff), as are enumerated candidates, the
				// cell-stamp listener filter and the full scan.
				if got := sparse.Deliver(nil, nil, nil); len(got) != 0 {
					t.Fatalf("|T|=0: sparse delivered %v", got)
				}
				fixed := [][]int{
					{rng.Intn(n)},                         // lone speaker
					{0, n / 2, n - 1},                     // 3 spread txs
					pickDistinct(rng, n, 8),               // small set
					pickDistinct(rng, n, smallTxCutoff+2), // just past the direct-scan cutoff
				}
				for trial, txs := range fixed {
					want := dense.Deliver(txs, nil, nil)
					got := sparse.Deliver(txs, nil, nil)
					if !sameReceptions(want, got) {
						t.Fatalf("fixed trial %d (|T|=%d): dense %v != sparse %v", trial, len(txs), want, got)
					}
				}
				for trial := 0; trial < 12; trial++ {
					frac := []float64{0.005, 0.02, 0.1, 0.25, 0.5, 1}[trial%6]
					var txs []int
					for v := 0; v < n; v++ {
						if rng.Float64() < frac {
							txs = append(txs, v)
						}
					}
					if len(txs) == 0 {
						txs = []int{rng.Intn(n)}
					}
					var listeners []int
					if trial%3 == 1 {
						for v := 0; v < n; v++ {
							if rng.Float64() < 0.5 {
								listeners = append(listeners, v)
							}
						}
					}
					want := dense.Deliver(txs, listeners, nil)
					got := sparse.Deliver(txs, listeners, nil)
					if !sameReceptions(want, got) {
						t.Fatalf("trial %d (|T|=%d, listeners=%v): dense %v != sparse %v",
							trial, len(txs), listeners != nil, want, got)
					}
				}
			})
		}
	}
}

// TestPropertyEquivalenceTightFarRadius re-runs the equivalence with the far
// radius forced down to the transmission range — the maximally truncated
// configuration, where the conservative tail bound and the exact fallback
// carry the whole correctness burden.
func TestPropertyEquivalenceTightFarRadius(t *testing.T) {
	n := 512
	for name, pts := range equivTopologies(n, 7) {
		t.Run(name, func(t *testing.T) {
			params := DefaultParams()
			dense, err := NewField(params, pts)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := NewSparseField(params, pts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sparse.SetFarRadius(params.Range()); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 8; trial++ {
				var txs []int
				for v := 0; v < n; v++ {
					if rng.Float64() < 0.2 {
						txs = append(txs, v)
					}
				}
				want := dense.Deliver(txs, nil, nil)
				got := sparse.Deliver(txs, nil, nil)
				if !sameReceptions(want, got) {
					t.Fatalf("trial %d: dense %v != sparse %v", trial, want, got)
				}
			}
		})
	}
}

// TestSparseMatchesDensePointQueries checks the lazy point queries (Gain,
// Distance, CommGraph), and the Eq. (1) reference built on Gain, against
// the dense precomputation.
func TestSparseMatchesDensePointQueries(t *testing.T) {
	pts := geom.UniformDisk(128, 4, 3)
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	txs := []int{1, 5, 9, 40, 77}
	for v := 0; v < 128; v += 7 {
		for u := 0; u < 128; u += 5 {
			if dense.Gain(v, u) != sparse.Gain(v, u) {
				t.Fatalf("Gain(%d,%d): dense %v sparse %v", v, u, dense.Gain(v, u), sparse.Gain(v, u))
			}
			if dense.Distance(v, u) != sparse.Distance(v, u) {
				t.Fatalf("Distance(%d,%d) mismatch", v, u)
			}
			if sinrOf(dense, v, u, txs) != sinrOf(sparse, v, u, txs) {
				t.Fatalf("SINR(%d,%d) mismatch", v, u)
			}
			if receivesOf(dense, v, u, txs) != receivesOf(sparse, v, u, txs) {
				t.Fatalf("Receives(%d,%d) mismatch", v, u)
			}
		}
	}
	da, sa := dense.CommGraph(), sparse.CommGraph()
	for v := range da {
		if !sameIntSet(da[v], sa[v]) {
			t.Fatalf("CommGraph[%d]: dense %v sparse %v", v, da[v], sa[v])
		}
	}
}

// TestSparseParallelDeterminism checks that the parallel Deliver path (above
// parallelCutoff listeners) produces the same ordered output as a serial
// dense run — ordering must not depend on goroutine scheduling.
func TestSparseParallelDeterminism(t *testing.T) {
	n := 3 * parallelCutoff
	pts := geom.UniformDisk(n, math.Sqrt(float64(n)/8), 5)
	params := DefaultParams()
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var txs []int
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.1 {
			txs = append(txs, v)
		}
	}
	want := sparse.Deliver(txs, nil, nil)
	for rep := 0; rep < 5; rep++ {
		got := sparse.Deliver(txs, nil, nil)
		if !sameReceptions(want, got) {
			t.Fatalf("rep %d: nondeterministic parallel Deliver", rep)
		}
	}
	// And the ordered-output contract: ascending receivers for nil listeners.
	for i := 1; i < len(want); i++ {
		if want[i-1].Receiver >= want[i].Receiver {
			t.Fatalf("receivers out of order at %d: %v", i, want[i-1:i+1])
		}
	}
}

// TestSparseFarRadiusValidation checks the far-radius floor.
func TestSparseFarRadiusValidation(t *testing.T) {
	sparse, err := NewSparseField(DefaultParams(), geom.UniformDisk(16, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.SetFarRadius(0.5); err == nil {
		t.Fatal("far radius below transmission range accepted")
	}
	if err := sparse.SetFarRadius(3); err != nil {
		t.Fatalf("valid far radius rejected: %v", err)
	}
	if got := sparse.FarRadius(); got != 3 {
		t.Fatalf("FarRadius = %v, want 3", got)
	}
}

// pickDistinct draws k distinct node indices (ascending).
func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// TestTxCentricMatchesFullScan pins the transmitter-centric pruning against
// the unpruned scan within the dense engine itself: a distance-matrix field
// (which has no positions, hence no listener index) built from the exact
// pairwise distances of a positional field must deliver identically across
// every transmitter regime. Any wrong pruning of a would-be receiver shows
// up here directly, without the sparse engine in the loop.
func TestTxCentricMatchesFullScan(t *testing.T) {
	n := 300
	pts := geom.UniformDisk(n, math.Sqrt(float64(n)/10), 23)
	params := DefaultParams()
	withIdx, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([][]float64, n)
	for v := range dist {
		dist[v] = make([]float64, n)
		for u := range dist[v] {
			if u != v {
				dist[v][u] = geom.Dist(pts[v], pts[u])
			}
		}
	}
	fullScan, err := NewFieldFromDistances(params, dist)
	if err != nil {
		t.Fatal(err)
	}
	if fullScan.lidx != nil || withIdx.lidx == nil {
		t.Fatal("test preconditions: positional field must have a listener index, distance field must not")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		k := []int{1, 2, 5, 12, 40, n / 2}[trial%6]
		txs := pickDistinct(rng, n, k)
		var listeners []int
		if trial%4 == 2 {
			listeners = pickDistinct(rng, n, n/3)
		}
		want := fullScan.Deliver(txs, listeners, nil)
		got := withIdx.Deliver(txs, listeners, nil)
		if !sameReceptions(want, got) {
			t.Fatalf("trial %d (|T|=%d): full scan %v != tx-centric %v", trial, k, want, got)
		}
	}
}

func sameReceptions(a, b []Reception) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}
