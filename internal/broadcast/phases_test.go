package broadcast

import (
	"testing"

	"dcluster/internal/analysis"
	"dcluster/internal/config"
	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// TestPhaseInvariantNewlyAwakeClustered verifies the Alg. 8 invariant the
// paper's Figure 1 illustrates: after every phase, the set of nodes
// awakened during that phase carries a valid 1-clustering (radius ≤ 1;
// centre count ≥ 1 whenever nodes woke).
func TestPhaseInvariantNewlyAwakeClustered(t *testing.T) {
	pts := geom.ConnectedStrip(45, 7, 1, 0.7, 17)
	env := newEnv(t, pts)
	res, err := Global(env, GlobalInput{
		Cfg:     config.Default(),
		Sources: []int{0},
		Delta:   geom.Density(pts, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered(allNodes(len(pts))) {
		t.Fatal("not covered")
	}
	for _, p := range res.Phases {
		if p.NewlyAwake > 0 && p.Clusters < 1 {
			t.Errorf("phase %d woke %d nodes but formed %d clusters", p.Phase, p.NewlyAwake, p.Clusters)
		}
		if p.NewlyAwake == 0 && p.Clusters != 0 {
			t.Errorf("phase %d woke nobody but reports %d clusters", p.Phase, p.Clusters)
		}
		// A phase's cluster count is bounded by the newly awake count.
		if p.Clusters > p.NewlyAwake {
			t.Errorf("phase %d: clusters %d > newly awake %d", p.Phase, p.Clusters, p.NewlyAwake)
		}
	}
	// Awake counts are cumulative and monotone.
	prev := 0
	for _, p := range res.Phases {
		if p.AwakeBefore < prev {
			t.Errorf("awakeBefore decreased at phase %d", p.Phase)
		}
		prev = p.AwakeBefore
	}
}

// TestGlobalBroadcastRoundsScaleWithDiameter checks the D-linearity of
// Theorem 3 on line topologies of growing hop count.
func TestGlobalBroadcastRoundsScaleWithDiameter(t *testing.T) {
	if testing.Short() {
		t.Skip("diameter sweep")
	}
	var prevRounds int64
	for _, n := range []int{8, 16, 24} {
		pts := geom.LinePath(n, 0.7)
		env := newEnv(t, pts)
		res, err := Global(env, GlobalInput{
			Cfg:     config.Default(),
			Sources: []int{0},
			Delta:   geom.Density(pts, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Covered(allNodes(n)) {
			t.Fatalf("n=%d not covered", n)
		}
		if prevRounds > 0 && res.Rounds <= prevRounds {
			t.Errorf("rounds did not grow with diameter: n=%d gives %d ≤ %d", n, res.Rounds, prevRounds)
		}
		prevRounds = res.Rounds
	}
}

// TestLabelSweepRespectsLabels is failure-injection flavoured: a corrupted
// label assignment (all labels equal) must still terminate the sweeps and
// deliver (the SNS just runs denser, losing guarantees but not safety).
func TestLabelSweepRespectsLabels(t *testing.T) {
	pts := geom.LinePath(8, 0.7)
	env := newEnv(t, pts)
	sns, err := newSNSForTest(env)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, len(pts))
	for i := range labels {
		labels[i] = 1 // degenerate labeling
	}
	heard, err := snsSweeps(env, sns, allNodes(len(pts)), labels, allNodes(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	if len(heard) == 0 {
		t.Error("even a degenerate labeling must deliver something on a sparse line")
	}
	if env.Rounds() != int64(sns.Len()) {
		t.Errorf("one label value must cost exactly one SNS pass, got %d rounds", env.Rounds())
	}
}

func TestValidateAnalysisUnassignedConstant(t *testing.T) {
	// The broadcast package's sentinel must match the analysis package's.
	if analysis.Unassigned != -1 {
		t.Fatal("sentinel drift")
	}
}

// TestSweepHeardMatchesNaive checks snsSweeps' deduplicated heard sets
// against nested maps that a test-local sink fills, delivery by delivery,
// over the same sweeps on a fresh environment. The instance is four dense
// clumps with 5% reception drops, on both engines: every pair is heard many
// times over, and the drops make which rounds carry a pair irregular.
func TestSweepHeardMatchesNaive(t *testing.T) {
	var pts []geom.Point
	for c := range 4 {
		for _, p := range geom.GaussianClusters(16, 1, 0, 0.3, int64(c)) {
			pts = append(pts, geom.Pt(p.X+16*float64(c), p.Y))
		}
	}
	spec, err := fault.Parse("seed=1;drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	nodes := allNodes(len(pts))
	for _, engine := range []string{"dense", "sparse"} {
		t.Run(engine, func(t *testing.T) {
			faultedEnv := func() *sim.Env {
				var eng sinr.Engine
				var err error
				if engine == "dense" {
					eng, err = sinr.NewField(sinr.DefaultParams(), pts)
				} else {
					eng, err = sinr.NewSparseField(sinr.DefaultParams(), pts)
				}
				if err != nil {
					t.Fatal(err)
				}
				return sim.MustEnv(fault.Wrap(eng, &spec), nil, 0)
			}
			res, err := Local(faultedEnv(), LocalInput{Cfg: config.Default(), Nodes: nodes, Delta: geom.Density(pts, 1)})
			if err != nil {
				t.Fatal(err)
			}

			env := faultedEnv()
			sns, err := newSNSForTest(env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := snsSweeps(env, sns, nodes, res.Label, nodes)
			if err != nil {
				t.Fatal(err)
			}

			ref := faultedEnv()
			refSNS, err := newSNSForTest(ref)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]map[int]bool{}
			deliveries := 0
			sink := func(_ int, ds []sim.Delivery) {
				for _, d := range ds {
					deliveries++
					if want[d.Receiver] == nil {
						want[d.Receiver] = map[int]bool{}
					}
					want[d.Receiver][d.Sender] = true
				}
			}
			payload := func(v int) sim.Msg { return sim.Msg{Kind: sim.KindSNS, From: int32(ref.IDs[v])} }
			maxLabel := int32(0)
			for _, l := range res.Label {
				maxLabel = max(maxLabel, l)
			}
			for l := int32(1); l <= maxLabel; l++ {
				var group []int
				for _, v := range nodes {
					if res.Label[v] == l {
						group = append(group, v)
					}
				}
				refSNS.Pass(ref, group, payload, nodes, sink)
			}

			pairs := 0
			for u, vs := range want {
				pairs += len(vs)
				for v := range vs {
					if !got[u][v] {
						t.Errorf("receiver %d heard sender %d, but the sweeps lost the pair", u, v)
					}
				}
				if len(got[u]) != len(vs) {
					t.Errorf("receiver %d: sweeps report %d senders, want %d", u, len(got[u]), len(vs))
				}
			}
			if len(got) != len(want) {
				t.Errorf("sweeps report %d receivers, want %d", len(got), len(want))
			}
			t.Logf("%d deliveries of %d distinct pairs", deliveries, pairs)
			if deliveries < 4*pairs {
				t.Errorf("%d deliveries of %d distinct pairs: too few repeats to exercise the duplicate check", deliveries, pairs)
			}
			if env.Stats() != ref.Stats() {
				t.Errorf("sweep statistics %+v, reference %+v", env.Stats(), ref.Stats())
			}
		})
	}
}
