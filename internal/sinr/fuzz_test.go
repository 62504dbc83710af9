package sinr

import (
	"math"
	"math/rand"
	"testing"

	"dcluster/internal/geom"
)

// Fuzz target for the reception invariant that makes the sparse engine's
// optimizations safe to land: on arbitrary deployments and transmitter sets,
// the dense engine (ground truth: full gain matrix, no pruning), the sparse
// engine's certified direct scan of small rounds (|txs| ≤ smallTxCutoff),
// its cell-blocked grid sweep of larger ones, and the maximally truncated
// exact-fallback configuration (far radius forced down to the transmission
// range) must all deliver the identical reception sequence. The committed seed corpus doubles as a regression suite: the
// seeds replay on every plain `go test` run, including CI's race tier
// (seed-12 is a 250-node small round: 20 transmitters).
func FuzzDeliverPathEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(30), false, uint8(0))
	f.Add(uint64(42), uint16(200), uint8(255), false, uint8(0)) // full shout-down
	f.Add(uint64(7), uint16(128), uint8(64), true, uint8(1))    // tight far radius + listener subset
	f.Add(uint64(99), uint16(250), uint8(16), false, uint8(2))  // dense deployment, mid fraction
	f.Add(uint64(3), uint16(40), uint8(4), true, uint8(0))      // sparse round, exact-fallback regime
	f.Add(uint64(1234), uint16(180), uint8(128), false, uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, frac uint8, tight bool, lsel uint8) {
		n := 16 + int(nRaw)%240 // 16..255: large enough to cross smallTxCutoff, cheap enough to fuzz
		r := math.Sqrt(float64(n) / 8)
		if r < 2 {
			r = 2
		}
		pts := geom.UniformDisk(n, r, int64(seed))
		params := DefaultParams()
		dense, err := NewField(params, pts)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewSparseField(params, pts)
		if err != nil {
			t.Fatal(err)
		}
		if tight {
			// Far radius at its floor: every conservative bound collapses and
			// the residual tiers / dense-order fallback carry correctness.
			if err := sparse.SetFarRadius(params.Range()); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(seed) ^ 0x5deece66d))
		p := (float64(frac) + 1) / 256 // (0, 1]
		var txs []int
		for v := 0; v < n; v++ {
			if rng.Float64() < p {
				txs = append(txs, v)
			}
		}
		if len(txs) == 0 {
			txs = []int{int(seed % uint64(n))}
		}
		var listeners []int
		if lsel%4 == 1 {
			step := 2 + int(lsel)/4%3
			for v := 0; v < n; v += step {
				listeners = append(listeners, v)
			}
		}
		want := dense.Deliver(txs, listeners, nil)
		if got := sparse.Deliver(txs, listeners, nil); !sameReceptions(want, got) {
			t.Fatalf("|T|=%d, n=%d, tight=%v: dense %v != sparse %v",
				len(txs), n, tight, want, got)
		}
	})
}
