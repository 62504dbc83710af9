package dcluster

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// log*-style MIS vs. iterated local minima, the EarlyStop exact-skip
// optimisation (wall-clock only — round counts are provably identical),
// selector length factors, and κ sensitivity. Reported metrics are
// simulated rounds; ns/op shows simulator wall-clock.

import (
	"fmt"
	"testing"

	"dcluster/internal/geom"
)

// BenchmarkAblationMIS compares the two MIS variants inside Clustering.
// FastMIS = colour reduction (O(log*) LOCAL rounds); simple = iterated
// local minima (chain-length LOCAL rounds, worse on adversarial ID orders).
func BenchmarkAblationMIS(b *testing.B) {
	pts := benchDisk(40, 8)
	for _, fast := range []bool{true, false} {
		b.Run(fmt.Sprintf("fast=%v", fast), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.FastMIS = fast
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts, WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, Clustering()).Cluster
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationEarlyStop verifies the exact-skip optimisation's
// wall-clock value; the rounds metric must be identical in both rows.
func BenchmarkAblationEarlyStop(b *testing.B) {
	pts := benchDisk(36, 8)
	for _, early := range []bool{true, false} {
		b.Run(fmt.Sprintf("earlystop=%v", early), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.EarlyStop = early
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts, WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, Clustering()).Cluster
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationWCSSFactor sweeps the wcss length factor: shorter
// selectors cut rounds linearly but erode the witnessed-selection
// probability; the clustering must stay valid at every tested point
// (validation failures abort the benchmark).
func BenchmarkAblationWCSSFactor(b *testing.B) {
	pts := benchDisk(36, 8)
	for _, factor := range []float64{0.0625, 0.125, 0.25} {
		b.Run(fmt.Sprintf("factor=%v", factor), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.WCSSFactor = factor
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts, WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, Clustering()).Cluster
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationKappa sweeps κ: larger close-pair constants lengthen
// every proximity construction ((κ+1)·|S| with |S| ∝ κ³) but tolerate
// denser interference neighbourhoods.
func BenchmarkAblationKappa(b *testing.B) {
	pts := benchDisk(36, 8)
	for _, kappa := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("kappa=%d", kappa), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Kappa = kappa
			cfg.Rho = kappa
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts, WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, Clustering()).Cluster
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationRadiusIters sweeps the RadiusReduction loop budget —
// the χ(r+1, 1−ε)-derived constant the paper treats as O(1).
func BenchmarkAblationRadiusIters(b *testing.B) {
	pts := benchDisk(36, 8)
	for _, iters := range []int{4, 6, 10} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.RadiusReductionIters = iters
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts, WithConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, Clustering()).Cluster
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationTopology compares clustering cost across deployment
// shapes at matched size (the motivation's "dense areas" stress).
func BenchmarkAblationTopology(b *testing.B) {
	tops := map[string][]Point{
		"disk":   UniformDisk(36, 2.1, 7),
		"clumps": GaussianClusters(36, 4, 5, 0.3, 7),
		"line":   LinePath(36, 0.7),
		"grid":   GridLattice(6, 0.6, 0.05, 7),
	}
	for name, pts := range tops {
		b.Run(name, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts)
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, Clustering()).Cluster
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(geom.Density(pts, 1)), "density")
		})
	}
}
