package sinr

import (
	"math/rand"
	"testing"

	"dcluster/internal/geom"
)

// Repro: huge sparse deployment forces geom.NewGridIndex to double the cell
// to 4·range, which exceeds the window reach (2·range). A scan box of
// p ± 2·range then no longer covers the inner 3×3 block, and a quick
// certain-yes tier built on it misses the adjacent cell's transmitters
// entirely. The grid sweep's ±span window (span ≥ 1) must still see them.
func TestCoarseGridQuickYes(t *testing.T) {
	params := DefaultParams() // range = 1
	rng := rand.New(rand.NewSource(7))

	var pts []geom.Point
	// Corner pins so the bounding box is 150x150 -> cell doubles to 4.
	pts = append(pts, geom.Point{X: 0, Y: 0}, geom.Point{X: 150, Y: 150})

	// Listener in cell (10, 10) near its right edge.
	u := len(pts)
	pts = append(pts, geom.Point{X: 43.5, Y: 42})
	// Sender 0.8 away, same cell.
	s := len(pts)
	pts = append(pts, geom.Point{X: 42.7, Y: 42})
	// Interferers in the adjacent cell (9, 10), distance 3.7 > 2 from u,
	// but outside the p±2 scan box (box starts at x=41.5, cell 10); enough
	// of them that the round takes the grid path, not the direct scan.
	var txs []int
	txs = append(txs, s)
	for i := 0; i < smallTxCutoff; i++ {
		txs = append(txs, len(pts))
		pts = append(pts, geom.Point{X: 39.8, Y: 42})
	}
	// Idle fillers spread over the area (listeners only).
	for len(pts) < 480 {
		pts = append(pts, geom.Point{X: rng.Float64() * 150, Y: rng.Float64() * 150})
	}

	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cell=%v span=%d n=%d ntx=%d", sparse.grid.Cell, sparse.span, len(pts), len(txs))

	want := dense.Deliver(txs, nil, nil)
	if got := sparse.Deliver(txs, nil, nil); !sameReceptions(want, got) {
		t.Errorf("dense %v != sparse %v (listener %d)", want, got, u)
	}
}
