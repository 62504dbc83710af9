package core

import (
	"fmt"
	"math"
	"sync"

	"dcluster/internal/analysis"
	"dcluster/internal/config"
	"dcluster/internal/flat"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
	"dcluster/internal/sparsify"
)

// phaseBGammaFloor is the minimum density budget handed to the Phase B
// radius reductions (see the comment at the call site).
const phaseBGammaFloor = 4

// ClusterInput parameterises the Clustering algorithm.
type ClusterInput struct {
	Cfg config.Config
	// Nodes is the unclustered set A to cluster (node indices).
	Nodes []int
	// Gamma is the density bound Γ known to the nodes.
	Gamma int
}

// Cluster runs Algorithm 6 (Theorem 1): it builds a 1-clustering of an
// unclustered set of density Γ in O(Γ·log N·log*N) rounds.
//
// Phase A repeatedly applies SparsificationU with a geometrically decaying
// density budget until O(1) nodes per dense area survive. Phase B seeds
// singleton clusters on the survivors, then walks the removal batches in
// reverse: children inherit their parent's cluster ID (2-clustering) and
// RadiusReduction restores a 1-clustering after every restored call.
func Cluster(env *sim.Env, in ClusterInput) (*Assignment, error) {
	if err := in.Cfg.Validate(); err != nil {
		return nil, err
	}
	cfg := in.Cfg
	if in.Gamma < 1 {
		in.Gamma = 1
	}

	wss, err := selectors.NewWSS(env.N, cfg.Kappa, cfg.WSSFactor, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Phase A: k rounds of SparsificationU, Λ decaying by 3/4 per round
	// (Alg. 6 lines 1–7).
	st := sparsify.AcquireState(env)
	defer sparsify.ReleaseState(env, st)
	k := sparsify.CallCount(in.Gamma)
	type callSpan struct {
		batchStart, batchEnd int
		lambda               int
	}
	var spans []callSpan
	x := append([]int(nil), in.Nodes...)
	lambda := float64(in.Gamma)
	for i := 0; i < k; i++ {
		gammaI := int(math.Ceil(lambda))
		results, err := sparsify.RunU(env, st, x, sparsify.Call{
			Cfg:   cfg,
			Sched: selectors.Lift(wss),
			Gamma: gammaI,
		})
		if err != nil {
			return nil, fmt.Errorf("core: phase A round %d: %w", i, err)
		}
		for _, r := range results {
			spans = append(spans, callSpan{batchStart: r.BatchStart, batchEnd: r.BatchEnd, lambda: gammaI})
			x = r.Survivors
		}
		lambda *= 3.0 / 4.0
		if lambda < 1 {
			lambda = 1
		}
	}

	// Phase B: singleton clusters on A_kl (line 8), then restore levels.
	out := NewAssignment(env.F.N())
	for _, v := range x {
		id := int32(env.IDs[v])
		out.ClusterOf[v] = id
		out.Center[id] = v
	}
	restored := append([]int(nil), x...)

	for j := len(spans) - 1; j >= 0; j-- {
		span := spans[j]
		var newKids []int
		for bi := span.batchEnd - 1; bi >= span.batchStart; bi-- {
			b := st.Batches[bi]
			newKids = append(newKids, b.Children...)
			inheritClusters(env, st, b, out)
		}
		if len(newKids) == 0 {
			continue
		}
		restored = append(restored, newKids...)
		// The restored set is 2-clustered (child within 1−ε of its parent,
		// parent within 1 of its centre); reduce back to a 1-clustering
		// (line 15). The paper's Λ schedule (4/3 growth per l levels)
		// assumes the full χ(5,1−ε) SparsificationU budget; with the
		// calibrated shorter budget the residual density can exceed Λ at
		// the deepest levels, so the budget is floored — a constant-factor
		// safety margin, not a structural change.
		gammaB := span.lambda
		if gammaB < phaseBGammaFloor {
			gammaB = phaseBGammaFloor
		}
		reduced, err := ReduceRadius(env, ReduceInput{
			Cfg:     cfg,
			Nodes:   restored,
			Current: out,
			Gamma:   gammaB,
		})
		if err != nil {
			return nil, fmt.Errorf("core: phase B level %d: %w", j, err)
		}
		adopt(out, reduced, restored)
	}

	for _, v := range in.Nodes {
		if out.ClusterOf[v] == analysis.Unassigned {
			return nil, fmt.Errorf("core: node %d (id %d) left unclustered", v, env.IDs[v])
		}
	}
	return out, nil
}

// inheritClusters replays one removal batch: clustered nodes transmit their
// cluster ID on the batch's exchange schedule; each child adopts exactly its
// parent's cluster (Alg. 6 line 13, cluster(v) ← cluster(parent(v))).
// Replay transmitter sets are subsets of the construction-time sets, so the
// parent→child delivery recorded during construction re-occurs.
func inheritClusters(env *sim.Env, st *sparsify.State, b sparsify.Batch, out *Assignment) {
	// Senders: every schedule member that currently has a cluster (the
	// parents of this batch are among them; extra clustered members only
	// lower interference relative to construction time). The schedule
	// snapshot is ascending by node index, so the sender order matches the
	// old full 0..n membership scan.
	sc := ihPool.Get().(*ihScratch)
	defer ihPool.Put(sc)
	sc.senders = sc.senders[:0]
	for _, v32 := range b.Sched.Members() {
		v := int(v32)
		if out.ClusterOf[v] != analysis.Unassigned {
			sc.senders = append(sc.senders, v)
		}
	}
	msg := func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindClusterID, From: int32(env.IDs[v]), Cluster: out.ClusterOf[v]}
	}
	sc.childSet.Reset(env.F.N())
	for _, c := range b.Children {
		sc.childSet.Set(c)
	}
	for _, d := range b.Sched.Run(env, sc.senders, msg, b.Children, nil) {
		if d.Msg.Kind != sim.KindClusterID || !sc.childSet.Has(d.Receiver) {
			continue
		}
		if out.ClusterOf[d.Receiver] != analysis.Unassigned {
			continue
		}
		if st.Parent[d.Receiver] != d.Sender {
			continue // inherit only from the parent
		}
		out.ClusterOf[d.Receiver] = d.Msg.Cluster
	}
}

// ihScratch is the pooled working state of one inheritClusters replay.
type ihScratch struct {
	senders  []int
	childSet flat.BoolStamp
}

var ihPool = sync.Pool{New: func() any { return new(ihScratch) }}

// adopt copies the reduced assignment for the given nodes into dst and
// rebuilds the centre map.
func adopt(dst, src *Assignment, nodes []int) {
	for _, v := range nodes {
		dst.ClusterOf[v] = src.ClusterOf[v]
	}
	dst.Center = make(map[int32]int, len(src.Center))
	for id, c := range src.Center {
		dst.Center[id] = c
	}
}

// ClusteringRoundsBound returns the Theorem 1 cost expression
// O(Γ·logN·log*N) with unit constants — used by experiments to compare
// measured rounds against the paper's asymptotic claim.
func ClusteringRoundsBound(gamma, idBound int) float64 {
	logN := math.Log2(float64(idBound) + 2)
	return float64(gamma) * logN * logStar(float64(idBound))
}

func logStar(x float64) float64 {
	s := 0.0
	for x > 1 {
		x = math.Log2(x)
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}
