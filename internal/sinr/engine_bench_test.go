package sinr

import (
	"fmt"
	"math"
	"testing"

	"dcluster/internal/geom"
)

// benchDeployment builds a constant-density disk (≈ 25 nodes per unit ball,
// the regime the CLI's auto-scaled radius and large-n presets produce) with
// every 8th node transmitting.
func benchDeployment(n int) ([]geom.Point, []int) {
	pts := geom.UniformDisk(n, math.Sqrt(float64(n)/25), int64(n))
	var txs []int
	for v := 0; v < n; v += 8 {
		txs = append(txs, v)
	}
	return pts, txs
}

// BenchmarkDeliver compares the two engines' full-round delivery cost on
// constant-density disks. The dense engine is capped at 8192 nodes (the gain
// matrix crosses 0.5 GiB there); the sparse engine continues into the
// regime only it can reach.
func BenchmarkDeliver(b *testing.B) {
	for _, n := range []int{1024, 2048, 4096, 8192, 32768} {
		pts, txs := benchDeployment(n)
		if n <= 8192 {
			b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
				f, err := NewField(DefaultParams(), pts)
				if err != nil {
					b.Fatal(err)
				}
				var dst []Reception
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = f.Deliver(txs, nil, dst[:0])
				}
				_ = dst
			})
		}
		b.Run(fmt.Sprintf("sparse/n=%d", n), func(b *testing.B) {
			f, err := NewSparseField(DefaultParams(), pts)
			if err != nil {
				b.Fatal(err)
			}
			var dst []Reception
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = f.Deliver(txs, nil, dst[:0])
			}
			_ = dst
		})
	}
}

// BenchmarkDeliverTx sweeps the transmitter-set size at fixed n, the regime
// map of the transmitter-centric path: |txs| ∈ {1, 16} exercises candidate
// enumeration (cost scales with activity, not n), n/8 the dense
// accumulation / grid sweep. These numbers, together with BenchmarkDeliver,
// locate the dense↔sparse crossover that SparseAutoThreshold encodes. The
// sparse-only rows at |txs| ∈ {24, 32, 48, 64} straddle smallTxCutoff, the
// switch from the direct scan to the grid sweep. The listeners=1of8 rows at
// n=4096 and |txs| ∈ {16, 48} restrict the round to every 8th node, the
// shape of an addressed pass (a proximity confirmation or a choose pass
// listens only at its addressees). The dense-only rows at n=256 and
// |txs| ∈ {4, 8, 32} are the regime of small dense clustering runs, whose
// Deliver calls average about 6 transmitters: all-listener rounds of that
// size take the transposed sweep's four-row blocks and leftover rows.
func BenchmarkDeliverTx(b *testing.B) {
	denseRow := func(pts []geom.Point, txs []int) {
		b.Run(fmt.Sprintf("dense/n=%d/txs=%d", len(pts), len(txs)), func(b *testing.B) {
			f, err := NewField(DefaultParams(), pts)
			if err != nil {
				b.Fatal(err)
			}
			var dst []Reception
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = f.Deliver(txs, nil, dst[:0])
			}
			_ = dst
		})
	}
	spread := func(n, k int) []int {
		txs := make([]int, k)
		for i := range txs {
			txs[i] = (i * 7919) % n
		}
		return txs
	}
	pts256, _ := benchDeployment(256)
	for _, k := range []int{4, 8, 32} {
		denseRow(pts256, spread(256, k))
	}
	for _, n := range []int{1024, 4096, 16384} {
		pts, _ := benchDeployment(n)
		ks := []int{1, 16, n / 8}
		if n >= 4096 {
			ks = []int{1, 16, 24, 32, 48, 64, n / 8}
		}
		for _, k := range ks {
			txs := spread(n, k)
			if n <= 4096 && (k <= 16 || k == n/8) {
				denseRow(pts, txs)
			}
			sparseRow := func(name string, listeners []int) {
				b.Run(name, func(b *testing.B) {
					f, err := NewSparseField(DefaultParams(), pts)
					if err != nil {
						b.Fatal(err)
					}
					var dst []Reception
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst = f.Deliver(txs, listeners, dst[:0])
					}
					_ = dst
				})
			}
			sparseRow(fmt.Sprintf("sparse/n=%d/txs=%d", n, k), nil)
			if n == 4096 && (k == 16 || k == 48) {
				var every8 []int
				for v := 0; v < n; v += 8 {
					every8 = append(every8, v)
				}
				sparseRow(fmt.Sprintf("sparse/n=%d/txs=%d/listeners=1of8", n, k), every8)
			}
		}
	}
}

// BenchmarkDeliverDense sweeps the transmitting fraction at fixed n through
// the grid sweep's regime, from 1/32 transmitting (most listener cells exit
// on the quick tiers) up to the shout-down rounds where every listener's
// window is full.
func BenchmarkDeliverDense(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		pts, _ := benchDeployment(n)
		for _, div := range []int{32, 16, 4, 1} {
			txs := make([]int, 0, n/div)
			for v := 0; v < n; v += div {
				txs = append(txs, v)
			}
			b.Run(fmt.Sprintf("sparse/n=%d/frac=1of%d", n, div), func(b *testing.B) {
				f, err := NewSparseField(DefaultParams(), pts)
				if err != nil {
					b.Fatal(err)
				}
				var dst []Reception
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = f.Deliver(txs, nil, dst[:0])
				}
				_ = dst
			})
		}
	}
}

// BenchmarkEngineConstruction measures field build cost: the dense engine
// pays O(n²) up front, the sparse engine O(n).
func BenchmarkEngineConstruction(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		pts, _ := benchDeployment(n)
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewField(DefaultParams(), pts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSparseField(DefaultParams(), pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
