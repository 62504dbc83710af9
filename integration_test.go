package dcluster

// Integration tests: the full stack across topologies, seeds and SINR
// parameter sets, with every structural guarantee re-checked by the
// ground-truth validators. Long sweeps are trimmed under -short.

import (
	"fmt"
	"testing"

	"dcluster/internal/analysis"
)

type topoCase struct {
	name string
	pts  []Point
}

func topologies(seed int64) []topoCase {
	return []topoCase{
		{"disk", UniformDisk(36, 1.8, seed)},
		{"square", UniformSquare(36, 3.5, seed)},
		{"clumps", GaussianClusters(36, 4, 5, 0.3, seed)},
		{"line", LinePath(14, 0.7)},
		{"grid", GridLattice(6, 0.6, 0.05, seed)},
	}
}

func TestClusterAcrossTopologiesAndSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, tc := range topologies(seed) {
			tc, seed := tc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				net, err := NewNetwork(tc.pts)
				if err != nil {
					t.Fatal(err)
				}
				res := mustRun(t, net, Clustering()).Cluster
				if err := net.ValidateClustering(res); err != nil {
					t.Error(err)
				}
				st := net.ClusterStats(res)
				if st.MaxRadius > 1+1e-9 {
					t.Errorf("max radius %.4f > 1", st.MaxRadius)
				}
				if st.Clusters > 1 && st.MinCentreD < (1-net.Params().Eps)-1e-9 {
					t.Errorf("min centre distance %.4f < 1−ε", st.MinCentreD)
				}
			})
		}
	}
}

func TestLocalBroadcastAcrossTopologies(t *testing.T) {
	for _, tc := range topologies(5) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			net, err := NewNetwork(tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, net, LocalBroadcast()).Local
			if !res.Complete(net) {
				t.Error("local broadcast incomplete")
			}
			// Labeling is c-imperfect with the measured tree-count budget.
			gamma := analysis.MaxClusterSize(res.Clustering.ClusterOf)
			if err := analysis.ValidateLabeling(res.Clustering.ClusterOf, res.Label, 8, gamma); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestGlobalBroadcastFromEveryCorner(t *testing.T) {
	pts := ConnectedStrip(40, 6, 1, 0.75, 9)
	sources := []int{0, len(pts) / 2, len(pts) - 1}
	if testing.Short() {
		sources = sources[:1]
	}
	for _, src := range sources {
		src := src
		t.Run(fmt.Sprintf("src=%d", src), func(t *testing.T) {
			t.Parallel()
			net, err := NewNetwork(pts)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, net, GlobalBroadcast(src)).Broadcast
			if res.Coverage() != 1 {
				t.Errorf("coverage %.2f from source %d", res.Coverage(), src)
			}
			// Wake rounds are monotone in hops from the source.
			if res.AwakeRound[src] != 0 {
				t.Errorf("source awake round = %d", res.AwakeRound[src])
			}
		})
	}
}

func TestAlternativeSINRParameters(t *testing.T) {
	paramSets := []Params{
		{Alpha: 2.5, Beta: 1.5, Noise: 1, Power: 1.5, Eps: 0.3},
		{Alpha: 4, Beta: 2, Noise: 1, Power: 2, Eps: 0.25},
		{Alpha: 3, Beta: 3, Noise: 0.5, Power: 1.5, Eps: 0.25},
	}
	pts := UniformDisk(30, 1.6, 11)
	for i, p := range paramSets {
		p := p
		t.Run(fmt.Sprintf("params=%d", i), func(t *testing.T) {
			t.Parallel()
			net, err := NewNetwork(pts, WithParams(p))
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, net, Clustering()).Cluster
			if err := net.ValidateClustering(res); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEnergyBounded(t *testing.T) {
	// Determinism's energy story: no node transmits in more than a small
	// fraction of the rounds (selector schedules are 1/κ-sparse per node).
	pts := UniformDisk(30, 1.6, 13)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, net, Clustering()).Cluster
	if res.Stats.MaxNodeTx <= 0 {
		t.Fatal("expected positive per-node transmissions")
	}
	if res.Stats.MaxNodeTx*2 > res.Stats.Rounds {
		t.Errorf("a node transmitted in %d of %d rounds — schedules should be sparse",
			res.Stats.MaxNodeTx, res.Stats.Rounds)
	}
}

func TestLeaderConsistentAcrossIDAssignments(t *testing.T) {
	// The elected leader is always a cluster centre with the minimum ID —
	// under any ID permutation.
	pts := LinePath(8, 0.7)
	for _, seed := range []int64{1, 2} {
		ids := permutedIDs(len(pts), seed)
		net, err := NewNetwork(pts, WithIDs(ids, len(pts)))
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, net, ElectLeader()).Leader
		if res.LeaderID != ids[res.Leader] {
			t.Errorf("leader id %d but node %d has id %d", res.LeaderID, res.Leader, ids[res.Leader])
		}
	}
}

func permutedIDs(n int, seed int64) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	// Deterministic Fisher–Yates with a tiny LCG (no math/rand dependency).
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		state = state*2862933555777941757 + 3037000493
		j := int(state % uint64(i+1))
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

func TestTheoreticalConfigSmallInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("theoretical constants are slow")
	}
	// The paper-faithful constants must also produce valid clusterings
	// (tiny instance: the loop budgets dominate the cost).
	pts := LinePath(5, 0.7)
	cfg := TheoreticalConfig(DefaultParams())
	// Trim only the χ-loop budgets to keep the test finite; κ, ρ and the
	// selector factors stay at their theoretical values.
	cfg.SparsifyURounds = 3
	cfg.RadiusReductionIters = 8
	net, err := NewNetwork(pts, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, net, Clustering()).Cluster
	if err := net.ValidateClustering(res); err != nil {
		t.Error(err)
	}
}
