package dcluster

// The benchmark harness regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks (DESIGN.md experiments E1–E10). The
// interesting output is the custom "rounds" metric — the simulated SINR
// round cost, which is what the paper's complexity claims are about —
// wall-clock ns/op only reflects the simulator.
//
// Run: go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcluster/internal/baselines"
	"dcluster/internal/comm"
	"dcluster/internal/config"
	"dcluster/internal/core"
	"dcluster/internal/geom"
	"dcluster/internal/lowerbound"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
	"dcluster/internal/sparsify"
)

func benchDisk(n, delta int) []Point {
	r := math.Sqrt(float64(n) / float64(delta))
	return UniformDisk(n, r, 7)
}

func benchEnv(b *testing.B, pts []Point) *sim.Env {
	b.Helper()
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		b.Fatal(err)
	}
	return sim.MustEnv(f, nil, 0)
}

func benchNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkTable1 regenerates the Table 1 rows: local broadcast rounds per
// algorithm across a density sweep (E1).
func BenchmarkTable1(b *testing.B) {
	n := 48
	for _, delta := range []int{4, 8} {
		pts := benchDisk(n, delta)
		real := geom.Density(pts, 1)

		b.Run(fmt.Sprintf("ours/delta=%d", delta), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts)
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, LocalBroadcast()).Local
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("ours/n=256/delta=%d", delta), func(b *testing.B) {
			// Small-n algorithm-layer tier (bench_check gate): same protocol
			// at n=256, where algorithm bookkeeping still dominates engine
			// Deliver cost.
			pts256 := benchDisk(256, delta)
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(pts256)
				if err != nil {
					b.Fatal(err)
				}
				res := mustRun(b, net, LocalBroadcast()).Local
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("rand-known/delta=%d", delta), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				env := benchEnv(b, pts)
				res := baselines.RandLocalKnownDelta(env, benchNodes(n), real, 6, 42)
				rounds = res.CompletionRound
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("rand-sweep/delta=%d", delta), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				env := benchEnv(b, pts)
				res := baselines.RandLocalSweep(env, benchNodes(n), 3, 42)
				rounds = res.CompletionRound
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("feedback/delta=%d", delta), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				env := benchEnv(b, pts)
				res := baselines.FeedbackLocal(env, benchNodes(n), 1_000_000, 42)
				rounds = res.CompletionRound
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
		b.Run(fmt.Sprintf("grid-location/delta=%d", delta), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				env := benchEnv(b, pts)
				res, err := baselines.GridLocal(env, benchNodes(n), real, 4, 1, 42)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.CompletionRound
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkTable2 regenerates the Table 2 rows: global broadcast rounds on
// a multi-hop strip (E2).
func BenchmarkTable2(b *testing.B) {
	pts := ConnectedStrip(40, 5, 1, 0.7, 11)
	delta := geom.Density(pts, 1)

	b.Run("ours", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			net, err := NewNetwork(pts)
			if err != nil {
				b.Fatal(err)
			}
			res := mustRun(b, net, GlobalBroadcast(0)).Broadcast
			if res.Coverage() < 1 {
				b.Fatalf("coverage %.2f", res.Coverage())
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("decay-rand", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			env := benchEnv(b, pts)
			res := baselines.DecayGlobal(env, 0, delta, 5_000_000, 42)
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("grid-decay-rand", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			env := benchEnv(b, pts)
			res, err := baselines.GridDecayGlobal(env, 0, delta, 3, 5_000_000, 42)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("round-robin-det", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			f, err := sinr.NewField(sinr.DefaultParams(), pts)
			if err != nil {
				b.Fatal(err)
			}
			ids := rand.New(rand.NewSource(99)).Perm(len(pts))
			for j := range ids {
				ids[j]++
			}
			env, err := sim.NewEnv(f, ids, len(pts))
			if err != nil {
				b.Fatal(err)
			}
			res := baselines.RoundRobinGlobal(env, 0, 5_000_000)
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkFig1PhaseTrace measures the per-phase cost of the global
// broadcast (E3).
func BenchmarkFig1PhaseTrace(b *testing.B) {
	pts := ConnectedStrip(40, 5, 1, 0.7, 13)
	var phases int
	var rounds int64
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(pts)
		if err != nil {
			b.Fatal(err)
		}
		res := mustRun(b, net, GlobalBroadcast(0)).Broadcast
		phases = len(res.PhaseTrace)
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(phases), "phases")
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkGlobalBroadcastStrip measures a whole global broadcast along a
// long strip: O(D) phases, each running labelings and radius reductions
// over a small newly-awake set. Per-phase work that scales with n instead
// of the awake set shows up here in ns/op and B/op; the n=500 row backs the
// bench_check small-n tier.
func BenchmarkGlobalBroadcastStrip(b *testing.B) {
	const n = 500
	pts := ConnectedStrip(n, 0.15*n, 1, 0.7, 2)
	net, err := NewNetwork(pts, WithEngine(EngineDense))
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := net.Run(context.Background(), GlobalBroadcast(0))
			if err != nil {
				b.Fatal(err)
			}
			if c := res.Broadcast.Coverage(); c != 1 {
				b.Fatalf("coverage %.4f", c)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkRunFaulted measures a faulted execution end to end: local
// broadcast on four dense clumps with 5% reception drops, dense engine.
// Faulted rounds share the reception memo with the faults applied per
// round on top, so this row tracks the memo-plus-filter path that a
// fault-free run never takes; it backs the bench_check small-n tier.
func BenchmarkRunFaulted(b *testing.B) {
	var pts []Point
	for c := range 4 {
		for _, p := range GaussianClusters(16, 1, 0, 0.3, int64(c)) {
			pts = append(pts, Pt(p.X+16*float64(c), p.Y))
		}
	}
	spec, err := ParseFaultSpec("seed=1;drop=0.05")
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(pts, WithEngine(EngineDense))
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d/drop=0.05", len(pts)), func(b *testing.B) {
		b.ReportAllocs()
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := net.Run(context.Background(), LocalBroadcast(), WithFaults(spec))
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkFig2Proximity measures one proximity-graph construction (E4).
func BenchmarkFig2Proximity(b *testing.B) {
	pts := UniformDisk(60, 2.2, 17)
	cfg := config.Default()
	var rounds int64
	for i := 0; i < b.N; i++ {
		env := benchEnv(b, pts)
		wss, err := selectors.NewWSS(env.N, cfg.Kappa, cfg.WSSFactor, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		st := sparsify.NewState(len(pts))
		_, err = sparsify.Run(env, st, benchNodes(len(pts)), sparsify.Call{
			Cfg: cfg, Sched: selectors.Lift(wss), Gamma: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds = env.Rounds()
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkFig3Sparsification measures the density-halving sweep (E5).
func BenchmarkFig3Sparsification(b *testing.B) {
	pts := UniformDisk(48, 1.2, 29)
	cfg := config.Default()
	var survivors int
	for i := 0; i < b.N; i++ {
		env := benchEnv(b, pts)
		wss, err := selectors.NewWSS(env.N, cfg.Kappa, cfg.WSSFactor, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		st := sparsify.NewState(len(pts))
		res, err := sparsify.Run(env, st, benchNodes(len(pts)), sparsify.Call{
			Cfg: cfg, Sched: selectors.Lift(wss), Gamma: geom.Density(pts, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		survivors = len(res.Survivors)
	}
	b.ReportMetric(float64(survivors), "survivors")
}

// BenchmarkFig4FullSparsification measures the level decay (E6).
func BenchmarkFig4FullSparsification(b *testing.B) {
	var pts []Point
	var cl []int32
	for c := 0; c < 3; c++ {
		for j := 0; j < 12; j++ {
			pts = append(pts, Pt(float64(c)*3+0.3*float64(j%4)/4, 0.3*float64(j/4)/4))
			cl = append(cl, int32(c+1))
		}
	}
	cfg := config.Default()
	var rounds int64
	for i := 0; i < b.N; i++ {
		env := benchEnv(b, pts)
		wcss, err := selectors.NewWCSS(env.N, cfg.Kappa, cfg.Rho, cfg.WCSSFactor, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		st := sparsify.NewState(len(pts))
		_, err = sparsify.Full(env, st, benchNodes(len(pts)), sparsify.Call{
			Cfg: cfg, Sched: wcss,
			ClusterOf: func(v int) int32 { return cl[v] },
			Clustered: true, Gamma: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds = env.Rounds()
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkFig56Gadget measures the adversarial single-gadget crossing (E7).
func BenchmarkFig56Gadget(b *testing.B) {
	for _, delta := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			params := lowerbound.GadgetParams()
			var blocked, delivered int
			for i := 0; i < b.N; i++ {
				chain, err := lowerbound.BuildGadget(delta, params)
				if err != nil {
					b.Fatal(err)
				}
				f, err := chain.Field()
				if err != nil {
					b.Fatal(err)
				}
				pool := make([]int, 4*(delta+2))
				for j := range pool {
					pool[j] = j + 1
				}
				ssf, err := selectors.NewSSF(len(pool), delta+2, 1, 7)
				if err != nil {
					b.Fatal(err)
				}
				sched := lowerbound.SelectorSchedule{Sel: ssf}
				asg, err := lowerbound.Adversary(sched, pool, delta, 200000)
				if err != nil {
					b.Fatal(err)
				}
				blocked = asg.BlockedRounds
				delivered = lowerbound.DeliveryRound(chain, f, sched, asg.CoreIDs, 200000)
			}
			b.ReportMetric(float64(blocked), "blocked-rounds")
			b.ReportMetric(float64(delivered), "delivery-round")
		})
	}
}

// BenchmarkFig7Chain measures deterministic vs randomized chain traversal
// (E8) via the exp runners' underlying primitives.
func BenchmarkFig7Chain(b *testing.B) {
	params := lowerbound.GadgetParams()
	for _, gadgets := range []int{2, 4} {
		b.Run(fmt.Sprintf("gadgets=%d", gadgets), func(b *testing.B) {
			var det int
			for i := 0; i < b.N; i++ {
				chain, err := lowerbound.BuildChain(8, gadgets, params)
				if err != nil {
					b.Fatal(err)
				}
				f, err := chain.Field()
				if err != nil {
					b.Fatal(err)
				}
				ssf, err := selectors.NewSSF(chain.N(), 10, 1, 7)
				if err != nil {
					b.Fatal(err)
				}
				sched := lowerbound.SelectorSchedule{Sel: ssf}
				det = floodDeterministic(chain, f, sched)
			}
			b.ReportMetric(float64(det), "delivery-round")
		})
	}
}

// floodDeterministic relays the message along a chain under an oblivious
// ssf schedule with identity IDs.
func floodDeterministic(chain *lowerbound.Chain, f *sinr.Field, sched lowerbound.SelectorSchedule) int {
	n := chain.N()
	awake := make([]bool, n)
	awake[chain.Source] = true
	target := chain.FinalTarget()
	var txs []int
	var buf []sinr.Reception
	for r := 1; r <= 2_000_000; r++ {
		txs = txs[:0]
		for v := 0; v < n; v++ {
			if awake[v] && sched.Transmits(v+1, r) {
				txs = append(txs, v)
			}
		}
		buf = f.Deliver(txs, nil, buf[:0])
		for _, rec := range buf {
			awake[rec.Receiver] = true
		}
		if awake[target] {
			return r
		}
	}
	return -1
}

// BenchmarkClustering measures Theorem 1's cost across a density sweep (E9).
// The bare delta= variants are the historical n=48 rows; the n=256 tier backs
// the bench_check small-n algorithm-layer gate.
func BenchmarkClustering(b *testing.B) {
	for _, delta := range []int{4, 8} {
		for _, n := range []int{48, 256} {
			name := fmt.Sprintf("delta=%d", delta)
			if n != 48 {
				name = fmt.Sprintf("n=%d/delta=%d", n, delta)
			}
			b.Run(name, func(b *testing.B) {
				pts := benchDisk(n, delta)
				var rounds int64
				var clusters int
				for i := 0; i < b.N; i++ {
					net, err := NewNetwork(pts)
					if err != nil {
						b.Fatal(err)
					}
					res := mustRun(b, net, Clustering()).Cluster
					rounds = res.Stats.Rounds
					clusters = res.NumClusters()
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(clusters), "clusters")
			})
		}
	}
}

// BenchmarkAlgorithmSteadyState measures the steady-state per-pass cost of
// the flattened algorithm layer: one warmed Sparse Network Schedule pass —
// schedule lists derived, buckets prepared, receptions memoized — over a
// fixed active set. After the warm-up pass, the whole pass (schedule
// execution, reception memo hits, delivery accumulation) must run
// allocation-free; the allocs/op column is gated at 0 by
// scripts/bench_check.sh (see also TestAlgorithmSteadyStateZeroAllocs).
func BenchmarkAlgorithmSteadyState(b *testing.B) {
	pts := benchDisk(48, 8)
	env := benchEnv(b, pts)
	sns, err := comm.NewSNS(config.Default(), env.N)
	if err != nil {
		b.Fatal(err)
	}
	nodes := benchNodes(len(pts))
	msg := func(v int) sim.Msg { return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])} }
	sns.Run(env, nodes, msg, nodes) // warm-up: derive schedules, memoize receptions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sns.Run(env, nodes, msg, nodes)
	}
}

// TestAlgorithmSteadyStateZeroAllocs pins the BenchmarkAlgorithmSteadyState
// invariant in the plain test suite: a warmed SNS pass is allocation-free.
func TestAlgorithmSteadyStateZeroAllocs(t *testing.T) {
	pts := benchDisk(48, 8)
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.MustEnv(f, nil, 0)
	sns, err := comm.NewSNS(config.Default(), env.N)
	if err != nil {
		t.Fatal(err)
	}
	nodes := benchNodes(len(pts))
	msg := func(v int) sim.Msg { return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])} }
	sns.Run(env, nodes, msg, nodes) // warm-up pass
	if avg := testing.AllocsPerRun(50, func() { sns.Run(env, nodes, msg, nodes) }); avg != 0 {
		t.Errorf("warmed SNS pass allocates %.1f objects per pass in steady state, want 0", avg)
	}
}

// BenchmarkLeaderElection measures Theorem 5's cost (E10).
func BenchmarkLeaderElection(b *testing.B) {
	pts := LinePath(10, 0.7)
	var rounds int64
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(pts)
		if err != nil {
			b.Fatal(err)
		}
		res := mustRun(b, net, ElectLeader()).Leader
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkSINRDeliver is the simulator microbenchmark: one round of
// reception resolution at n=256 with 32 transmitters.
func BenchmarkSINRDeliver(b *testing.B) {
	pts := UniformDisk(256, 4, 3)
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]int, 32)
	for i := range txs {
		txs[i] = i * 8
	}
	var buf []sinr.Reception
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = f.Deliver(txs, nil, buf[:0])
	}
	_ = buf
}

// BenchmarkSelectorMembership is the hot-path hash microbenchmark.
func BenchmarkSelectorMembership(b *testing.B) {
	w, err := selectors.NewWCSS(1<<16, 4, 4, 1, 99)
	if err != nil {
		b.Fatal(err)
	}
	sink := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = w.ContainsPair(i%w.Len(), i%1000+1, i%50+1)
	}
	_ = sink
}

// BenchmarkRunOverhead tracks the cost of the Run session layer (observer
// off) against the pre-redesign execution path: "legacy" drives the shared
// engine and core.Cluster directly, exactly as the old blocking methods
// did, bypassing Run entirely; "run" goes through the session API (engine
// session acquisition, env construction, abort guard). Any delta between
// the two is the per-run overhead of the redesign. The Network is reused
// across iterations — the production pattern the session pool optimises.
func BenchmarkRunOverhead(b *testing.B) {
	pts := benchDisk(32, 4)
	net, err := NewNetwork(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("legacy", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			env, err := sim.NewEnv(net.field, net.ids, net.idcap)
			if err != nil {
				b.Fatal(err)
			}
			a, err := core.Cluster(env, core.ClusterInput{
				Cfg:   net.cfg,
				Nodes: net.allNodes(),
				Gamma: net.Density(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := net.validateClustering(a.ClusterOf, a.Center, 1.0); err != nil {
				b.Fatal(err)
			}
			rounds = env.Stats().Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("run", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := net.Run(context.Background(), Clustering())
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	// step: the steady-state per-round cost of the execution environment
	// alone (Step with a small transmitter set against the dense engine).
	// The allocs/op column is the load-bearing number: the round loop must
	// stay allocation-free (see also TestStepSteadyStateZeroAllocs).
	b.Run("step", func(b *testing.B) {
		env, err := sim.NewEnv(net.field, net.ids, net.idcap)
		if err != nil {
			b.Fatal(err)
		}
		txs := []int{0, 5, 9}
		msg := func(v int) sim.Msg { return sim.Msg{Kind: sim.KindPayload, From: int32(v)} }
		env.Step(txs, msg, nil) // warm the pooled buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Step(txs, msg, nil)
		}
	})
}

// TestStepSteadyStateZeroAllocs asserts the allocation-free round loop of
// the acceptance criteria: after the first round warms the pooled buffers,
// Env.Step (serial engine path) performs zero allocations per round, for
// both engines and for silent rounds.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	pts := benchDisk(64, 8)
	for _, kind := range []EngineKind{EngineDense, EngineSparse} {
		net, err := NewNetwork(pts, WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		env, err := sim.NewEnv(net.field, net.ids, net.idcap)
		if err != nil {
			t.Fatal(err)
		}
		txs := []int{1, 7, 13}
		msg := func(v int) sim.Msg { return sim.Msg{Kind: sim.KindPayload, From: int32(v)} }
		env.Step(txs, msg, nil) // warm-up round
		if avg := testing.AllocsPerRun(200, func() { env.Step(txs, msg, nil) }); avg != 0 {
			t.Errorf("engine=%s: Env.Step allocates %.1f objects per round in steady state, want 0", kind, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { env.Step(nil, nil, nil) }); avg != 0 {
			t.Errorf("engine=%s: silent Step allocates %.1f objects per round, want 0", kind, avg)
		}
		// Dense round: half the network transmitting drives the sparse
		// engine through its accumulating cell-blocked path, which must be
		// as allocation-free in steady state as the per-listener path.
		var dense []int
		for v := 0; v < len(pts); v += 2 {
			dense = append(dense, v)
		}
		env.Step(dense, msg, nil) // warm the accumulation buffers
		if avg := testing.AllocsPerRun(200, func() { env.Step(dense, msg, nil) }); avg != 0 {
			t.Errorf("engine=%s: dense-round Step allocates %.1f objects per round in steady state, want 0", kind, avg)
		}
	}
}
