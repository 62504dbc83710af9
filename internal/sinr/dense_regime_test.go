package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcluster/internal/geom"
)

// Dense-round regime coverage for the engine-equivalence property: the
// existing suite sweeps fractions up to 100% only at n ≤ 2048, below where
// the accumulating cell-blocked path carries real load. This suite pins the
// regime the dense-round optimization targets — 25–100% transmitting at n up
// to 8192 — asserting byte-identical reception sequences against the dense
// engine, with the grid sweep run serially and on four stripe workers.
func TestPropertyDenseRegimeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("dense-regime sweep (n up to 8192, dense gain matrix) is the full tier")
	}
	for _, n := range []int{1024, 4096, 8192} {
		pts := geom.UniformDisk(n, math.Sqrt(float64(n)/8), int64(n)*17)
		t.Run(fmt.Sprintf("disk/n%d", n), func(t *testing.T) {
			params := DefaultParams()
			dense, err := NewField(params, pts)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := NewSparseField(params, pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n) * 101))
			for trial, frac := range []float64{0.25, 0.5, 0.75, 1} {
				var txs []int
				for v := 0; v < n; v++ {
					if frac == 1 || rng.Float64() < frac {
						txs = append(txs, v)
					}
				}
				var listeners []int
				if trial%2 == 1 {
					for v := 0; v < n; v += 3 {
						listeners = append(listeners, v)
					}
				}
				want := dense.Deliver(txs, listeners, nil)
				for _, w := range []int{1, 4} {
					sparse.workers = w
					got := sparse.Deliver(txs, listeners, nil)
					if !sameReceptions(want, got) {
						t.Fatalf("frac=%v workers=%d (|T|=%d): reception mismatch (dense %d, sparse %d receptions)",
							frac, w, len(txs), len(want), len(got))
					}
				}
			}
		})
	}
}

// TestDenseRegimeStatsEquivalence runs the full execution stack (sessions,
// stats accounting, memoization) on both engines under a bounded round
// budget and asserts identical Stats — the integration-level form of the
// Deliver equivalence, catching any divergence the raw reception comparison
// cannot see (round accounting, memo interaction, silent-round handling).
// It lives here rather than the root package to keep the engine-equivalence
// suite in one place; the root integration tests exercise the public API.
func TestDenseRegimeStatsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded clustering comparison is the full tier")
	}
	n := 1024
	pts := geom.UniformDisk(n, math.Sqrt(float64(n)/8), 19)
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Drive both engines through an identical synthetic schedule mixing
	// regimes: dense bursts (all / half the nodes), mid-size sets, lone
	// speakers; accumulate a digest of every reception.
	rng := rand.New(rand.NewSource(23))
	var txsAll, txsHalf []int
	for v := 0; v < n; v++ {
		txsAll = append(txsAll, v)
		if v%2 == 0 {
			txsHalf = append(txsHalf, v)
		}
	}
	schedule := [][]int{txsAll, txsHalf, pickDistinct(rng, n, 100), pickDistinct(rng, n, 30), {rng.Intn(n)}}
	var dDigest, sDigest uint64
	var dCount, sCount int
	for rep := 0; rep < 20; rep++ {
		for _, txs := range schedule {
			for _, r := range dense.Deliver(txs, nil, nil) {
				dDigest = dDigest*1000003 + uint64(r.Receiver)*31 + uint64(r.Sender)
				dCount++
			}
			for _, r := range sparse.Deliver(txs, nil, nil) {
				sDigest = sDigest*1000003 + uint64(r.Receiver)*31 + uint64(r.Sender)
				sCount++
			}
		}
	}
	if dDigest != sDigest || dCount != sCount {
		t.Fatalf("schedule digest mismatch: dense (%d receptions, %x) vs sparse (%d, %x)",
			dCount, dDigest, sCount, sDigest)
	}
}
