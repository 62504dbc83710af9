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
// its cell-blocked grid sweep of larger ones, and the same sweep on a
// coarse-cell field (two corner pins double or quadruple the cell side, so
// the listener window spans 2 or 1 cells and the out-of-window bounds and
// the exact out-of-window walk carry more of each decision) must all
// deliver the identical reception sequence. The committed seed corpus
// doubles as a regression suite: the seeds replay on every plain `go test`
// run, including CI's race tier (seed-12 is a 250-node small round: 20
// transmitters). With lattice set, the nodes fill a square integer lattice
// row by row at spacing (1 + seed%4)/4 instead of a disk: every squared
// distance is exact, so listeners see exactly equidistant nearest
// transmitters (seed-13 to seed-15 are small rounds of that kind).
func FuzzDeliverPathEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(30), false, uint8(0), false)
	f.Add(uint64(42), uint16(200), uint8(255), false, uint8(0), false) // full shout-down
	f.Add(uint64(7), uint16(128), uint8(64), true, uint8(1), false)    // span-1 coarse cells + listener subset
	f.Add(uint64(99), uint16(250), uint8(16), false, uint8(2), false)  // dense deployment, mid fraction
	f.Add(uint64(3), uint16(40), uint8(4), true, uint8(0), false)      // sparse round, span-2 coarse cells
	f.Add(uint64(1234), uint16(180), uint8(128), false, uint8(3), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, frac uint8, coarse bool, lsel uint8, lattice bool) {
		n := 16 + int(nRaw)%240 // 16..255: large enough to cross smallTxCutoff, cheap enough to fuzz
		var pts []geom.Point
		if lattice {
			side := int(math.Ceil(math.Sqrt(float64(n))))
			step := float64(1+seed%4) / 4
			for v := 0; v < n; v++ {
				pts = append(pts, geom.Pt(step*float64(v%side), step*float64(v/side)))
			}
		} else {
			r := math.Sqrt(float64(n) / 8)
			if r < 2 {
				r = 2
			}
			pts = geom.UniformDisk(n, r, int64(seed))
		}
		params := DefaultParams()
		if coarse {
			k := 2.0
			if lsel&1 == 1 {
				k = 4
			}
			pts = withCornerPins(pts, params.Range(), k)
		}
		dense, err := NewField(params, pts)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewSparseField(params, pts)
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("|T|=%d, n=%d, cell=%v: dense %v != sparse %v",
				len(txs), n, sparse.grid.Cell, want, got)
		}
	})
}
