// Package core implements the paper's primary contribution: the
// RadiusReduction algorithm (Alg. 5, Lemma 12) and the deterministic
// distributed Clustering algorithm (Alg. 6, Theorem 1), which partitions an
// ad hoc SINR network into clusters such that (i) each cluster fits in a
// ball of radius 1, (ii) every unit ball meets O(1) clusters, and (iii)
// every node knows its cluster ID.
package core

import (
	"fmt"
	"sort"
	"sync"

	"dcluster/internal/analysis"
	"dcluster/internal/comm"
	"dcluster/internal/config"
	"dcluster/internal/flat"
	"dcluster/internal/mis"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
	"dcluster/internal/sparsify"
)

// Assignment is a cluster assignment produced by the core algorithms.
// Cluster IDs are the protocol IDs of the cluster centres.
type Assignment struct {
	// ClusterOf[node] is the cluster ID, or analysis.Unassigned.
	ClusterOf []int32
	// Center maps cluster IDs to centre node indices.
	Center map[int32]int
}

// NewAssignment returns an all-unassigned assignment for n nodes.
func NewAssignment(n int) *Assignment {
	a := &Assignment{ClusterOf: make([]int32, n), Center: make(map[int32]int)}
	for i := range a.ClusterOf {
		a.ClusterOf[i] = analysis.Unassigned
	}
	return a
}

// ReduceInput parameterises one RadiusReduction run.
type ReduceInput struct {
	Cfg config.Config
	// Nodes is the r-clustered set X to re-cluster.
	Nodes []int
	// Current is the existing r-clustering of Nodes (used by the clustered
	// sparsification schedules inside the loop).
	Current *Assignment
	// Gamma is the density bound Γ of X.
	Gamma int
}

// ReduceRadius runs Algorithm 5: it transforms an r-clustering (r = O(1),
// canonically 2) into a 1-clustering in O((Γ + log*N)·log N) rounds.
// The returned assignment covers exactly in.Nodes.
func ReduceRadius(env *sim.Env, in ReduceInput) (*Assignment, error) {
	if err := in.Cfg.Validate(); err != nil {
		return nil, err
	}
	cfg := in.Cfg
	out := NewAssignment(env.F.N())

	// Execution-scoped selector family, schedule cache and SNS: the wcss
	// (and most of the surviving nodes) persist across iterations — and
	// across the successive reductions of phase B and the broadcast stages —
	// so the per-node schedule lists are derived once per execution.
	wcss, events, err := comm.SharedWCSS(env, cfg)
	if err != nil {
		return nil, err
	}
	sns, err := comm.SharedSNS(env, cfg)
	if err != nil {
		return nil, err
	}

	x := append([]int(nil), in.Nodes...)

	sc := rrPool.Get().(*rrScratch)
	defer rrPool.Put(sc)
	// Working clustering seen by the sparsification schedules: starts as
	// the input r-clustering; nodes keep it until re-assigned. Only entries
	// of in.Nodes are ever read or written, so only those are initialised.
	if n := env.F.N(); cap(sc.work) < n {
		sc.work = make([]int32, n)
	}
	work := sc.work[:env.F.N()]
	for _, v := range x {
		work[v] = in.Current.ClusterOf[v]
	}

	var emptyIterRounds int64 = -1
	for it := 0; it < cfg.RadiusReductionIters; it++ {
		if len(x) == 0 && cfg.EarlyStop && emptyIterRounds >= 0 {
			env.Skip(int64(cfg.RadiusReductionIters-it) * emptyIterRounds)
			break
		}
		start := env.Rounds()
		if err := reduceIteration(env, cfg, wcss, events, sns, x, work, out, in.Gamma, sc); err != nil {
			return nil, err
		}
		if len(x) == 0 {
			emptyIterRounds = env.Rounds() - start
			continue
		}
		next := x[:0]
		for _, v := range x {
			if !sc.assigned.Has(v) {
				next = append(next, v)
			}
		}
		x = next
		if len(x) == 0 {
			emptyIterRounds = -1 // measure one empty iteration before skipping
		}
	}
	if len(x) > 0 {
		return nil, fmt.Errorf("core: radius reduction left %d nodes unassigned after %d iterations (raise Cfg.RadiusReductionIters)", len(x), cfg.RadiusReductionIters)
	}
	return out, nil
}

// rrScratch is the pooled working state of one RadiusReduction run: the
// per-iteration heard/adjacency structures and membership sets, flattened to
// generation-stamped slices and CSR builders.
type rrScratch struct {
	member   flat.BoolStamp // SNS-pass membership filter
	heardB   flat.AdjacencyBuilder
	heard    flat.Adjacency  // hello-pass heard sets, delivery order
	listS    flat.Int32Stamp // node -> precomputed heard-ID list span
	listE    flat.Int32Stamp
	listIDs  []int32 // concatenated ID-sorted capped heard lists
	sortBuf  []int32 // heard-list sorting scratch
	adjB     flat.AdjacencyBuilder
	adj      flat.Adjacency // mutual-exchange graph G
	assigned flat.BoolStamp // nodes assigned this iteration
	inX      flat.BoolStamp // membership in the remaining set x
	d        []int          // MIS members, ascending node index
	work     []int32        // working clustering, valid on the reduced set only
}

var rrPool = sync.Pool{New: func() any { return new(rrScratch) }}

// reduceIteration performs one pass of the Alg. 5 main loop over the
// remaining set x, writing assignments into out. The nodes assigned this
// iteration are reported in sc.assigned.
func reduceIteration(
	env *sim.Env,
	cfg config.Config,
	wcss *selectors.WCSS,
	events *comm.EventLists,
	sns *comm.SNS,
	x []int,
	work []int32,
	out *Assignment,
	gamma int,
	sc *rrScratch,
) error {
	sc.assigned.Reset(env.F.N())
	st := sparsify.AcquireState(env)
	defer sparsify.ReleaseState(env, st)
	if gamma > len(x) {
		gamma = len(x)
	}
	if gamma < 1 {
		gamma = 1
	}
	levels, err := sparsify.Full(env, st, x, sparsify.Call{
		Cfg:       cfg,
		Sched:     wcss,
		ClusterOf: func(v int) int32 { return work[v] },
		Clustered: true,
		Gamma:     gamma,
		Events:    events,
	})
	if err != nil {
		return err
	}
	xk := levels.Final()

	// Sparse Network Schedule on X_k: hello pass, then heard-list pass, to
	// learn the mutual-exchange graph G (Alg. 5 line 5).
	runHello(env, sns, xk, sc)
	mutualAdjacency(env, sns, xk, sc)

	// D ← MIS(G), simulated over SNS executions (Alg. 5 line 6). Isolated
	// nodes of X_k join D trivially (they heard nobody within 1−ε).
	exchange := func(msgOf func(int) sim.Msg) []sim.Delivery {
		return sns.Run(env, xk, msgOf, xk)
	}
	res := mis.Compute(xk, func(v int) int { return env.IDs[v] }, &sc.adj, exchange, mis.Options{
		IDBound: env.N,
		Factor:  cfg.MISColorFactor,
		Seed:    cfg.Seed,
		Fast:    cfg.FastMIS,
	})

	// Local broadcast from D (Alg. 5 line 7): members announce themselves
	// as new cluster centres; every remaining node within range joins the
	// first centre it hears (line 10).
	sc.d = sc.d[:0]
	for _, v := range xk {
		if res.InMIS[v] {
			sc.d = append(sc.d, v)
		}
	}
	sort.Ints(sc.d)
	for _, c := range sc.d {
		id := int32(env.IDs[c])
		out.ClusterOf[c] = id
		out.Center[id] = c
		work[c] = id
		sc.assigned.Set(c)
	}
	centreMsg := func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindClusterID, From: int32(env.IDs[v]), Cluster: int32(env.IDs[v])}
	}
	sc.inX.Reset(env.F.N())
	for _, v := range x {
		sc.inX.Set(v)
	}
	sns.Pass(env, sc.d, centreMsg, x, func(_ int, ds []sim.Delivery) {
		for i := range ds {
			del := &ds[i]
			u := del.Receiver
			if del.Msg.Kind != sim.KindClusterID || sc.assigned.Has(u) || !sc.inX.Has(u) {
				continue
			}
			out.ClusterOf[u] = del.Msg.Cluster
			work[u] = del.Msg.Cluster
			sc.assigned.Set(u)
		}
	})
	return nil
}

// runHello runs one SNS pass where every node announces its ID; fills
// sc.heard with the per-node heard sets (first-occurrence delivery order,
// exactly the old append-unique lists) and sc.member with the node set.
func runHello(env *sim.Env, sns *comm.SNS, nodes []int, sc *rrScratch) {
	n := env.F.N()
	hello := func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindHello, From: int32(env.IDs[v])}
	}
	sc.member.Reset(n)
	for _, v := range nodes {
		sc.member.Set(v)
	}
	sc.heardB.Reset(n)
	sns.Pass(env, nodes, hello, nodes, func(_ int, ds []sim.Delivery) {
		for i := range ds {
			if d := &ds[i]; d.Msg.Kind == sim.KindHello && sc.member.Has(d.Receiver) && sc.member.Has(d.Sender) {
				sc.heardB.Add(d.Receiver, d.Sender)
			}
		}
	})
	sc.heardB.Build(&sc.heard, true)
}

// mutualAdjacency runs the confirmation SNS pass: every node broadcasts the
// list of IDs it heard (constant density ⇒ constant list, capped at
// sim.MaxList deterministically by ID); edges are mutual exchanges, built
// into sc.adj. The per-node ID lists are precomputed once (ID-sorted,
// capped) instead of being re-sorted and re-allocated on every scheduled
// transmission; the shared backing array is read-only downstream.
func mutualAdjacency(env *sim.Env, sns *comm.SNS, nodes []int, sc *rrScratch) {
	n := env.F.N()
	sc.listS.Reset(n)
	sc.listE.Reset(n)
	sc.listIDs = sc.listIDs[:0]
	for _, v := range nodes {
		hs := append(sc.sortBuf[:0], sc.heard.Neighbors(v)...)
		// Insertion sort by protocol ID (constant-density lists).
		for i := 1; i < len(hs); i++ {
			h := hs[i]
			j := i - 1
			for j >= 0 && env.IDs[hs[j]] > env.IDs[h] {
				hs[j+1] = hs[j]
				j--
			}
			hs[j+1] = h
		}
		sc.sortBuf = hs
		if len(hs) > sim.MaxList {
			hs = hs[:sim.MaxList]
		}
		sc.listS.Set(v, int32(len(sc.listIDs)))
		for _, h := range hs {
			sc.listIDs = append(sc.listIDs, int32(env.IDs[h]))
		}
		sc.listE.Set(v, int32(len(sc.listIDs)))
	}
	lists := func(v int) sim.Msg {
		m := sim.Msg{Kind: sim.KindHeard, From: int32(env.IDs[v])}
		lo, ok := sc.listS.Get(v)
		if !ok {
			return m
		}
		hi, _ := sc.listE.Get(v)
		if hi > lo {
			m.List = sc.listIDs[lo:hi]
		}
		return m
	}
	sc.adjB.Reset(n)
	sns.Pass(env, nodes, lists, nodes, func(_ int, ds []sim.Delivery) {
		for i := range ds {
			d := &ds[i]
			if d.Msg.Kind != sim.KindHeard || !sc.member.Has(d.Receiver) || !sc.member.Has(d.Sender) {
				continue
			}
			u, v := d.Receiver, d.Sender
			if sc.heard.EdgeIndex(u, v) < 0 {
				continue
			}
			for _, idU := range d.Msg.List {
				if int(idU) == env.IDs[u] {
					sc.adjB.Add(u, v)
					sc.adjB.Add(v, u)
				}
			}
		}
	})
	sc.adjB.Build(&sc.adj, true)
}
