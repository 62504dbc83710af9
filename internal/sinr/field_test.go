package sinr

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"dcluster/internal/geom"
)

// TestNewFieldGainsBitExact pins the tiled, mirrored, parallel gain fill to
// the per-entry formula: every off-diagonal entry is bitwise
// gainAt(d(v,u)) evaluated in (v, u) order, the diagonal is 0, and the
// matrix does not depend on the worker count. The sizes straddle the
// serial/parallel cutoff and include one that is not a multiple of the tile
// side.
func TestNewFieldGainsBitExact(t *testing.T) {
	params := DefaultParams()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 255, 256, 257, 1000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			pos := geom.UniformDisk(n, math.Sqrt(float64(n)/8), int64(n))
			var mats [][]float64
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				f, err := NewField(params, pos)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					for u := 0; u < n; u++ {
						want := 0.0
						if u != v {
							want = gainAt(params, geom.Dist(pos[v], pos[u]))
						}
						if got := f.gain[v][u]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("GOMAXPROCS=%d: gain[%d][%d] = %v, want %v", procs, v, u, got, want)
						}
					}
				}
				mats = append(mats, slices.Concat(f.gain...))
			}
			if !slices.Equal(mats[0], mats[1]) {
				t.Fatal("gain matrix differs between GOMAXPROCS 1 and 4")
			}
		})
	}
}
