// Package sparsify implements the paper's network sparsification machinery:
// Algorithm 2 (Sparsification), Algorithm 3 (SparsificationU) and
// Algorithm 4 (FullSparsification), with the parent/child forest and
// schedule bookkeeping needed by imperfect labeling (Lemma 11) and by the
// cluster-ID propagation of the Clustering algorithm (Alg. 6).
package sparsify

import (
	"fmt"
	"sort"
	"sync"

	"dcluster/internal/comm"
	"dcluster/internal/config"
	"dcluster/internal/flat"
	"dcluster/internal/mis"
	"dcluster/internal/proximity"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
)

// ChildRef is a parent's record of one child: acquired when the child's
// choose-message (which piggybacks the child's completed subtree size) is
// received.
type ChildRef struct {
	Node int
	Size int
}

// Batch records the children removed during one sparsification iteration
// together with that iteration's exchange schedule. Replaying the schedule
// with any subset of its construction-time active set reproduces every
// parent↔child exchange (reception monotonicity, β > 1).
type Batch struct {
	Sched    *proximity.Schedule
	Children []int
}

// State is the cross-call forest bookkeeping. One State spans an entire
// FullSparsification / Clustering execution.
type State struct {
	Parent      []int        // Parent[v] = parent node index, or -1
	SubtreeSize []int        // completed subtree size (1 + children's sizes)
	Children    [][]ChildRef // parent-side child records, acquisition order
	Batches     []Batch      // removal batches in global time order

	// events caches per-selector schedule lists across the execution's
	// proximity constructions (see comm.EventLists).
	events map[selectors.PairSelector]*comm.EventLists

	// touched lists the nodes whose Parent, SubtreeSize or Children left
	// their initial values (possibly repeated), so a released State resets
	// in O(touched nodes) rather than O(n).
	touched []int32
}

// eventLists returns the execution-scoped schedule cache for sel, creating
// it on first use. An explicit cache in Call.Events takes precedence.
func (st *State) eventLists(call Call) *comm.EventLists {
	if call.Events != nil {
		return call.Events
	}
	if st.events == nil {
		st.events = map[selectors.PairSelector]*comm.EventLists{}
	}
	el, ok := st.events[call.Sched]
	if !ok {
		el = comm.NewEventLists(call.Sched)
		st.events[call.Sched] = el
	}
	return el
}

// NewState creates bookkeeping for n nodes.
func NewState(n int) *State {
	st := &State{
		Parent:      make([]int, n),
		SubtreeSize: make([]int, n),
		Children:    make([][]ChildRef, n),
	}
	for i := range st.Parent {
		st.Parent[i] = -1
		st.SubtreeSize[i] = 1
	}
	return st
}

// statePoolKey keys an execution's free list of States in the environment's
// derived-structure cache.
type statePoolKey struct{}

// statePool is the execution-scoped free list behind AcquireState. It is a
// stack, so nested holders (a Clustering holding one State while each of its
// radius reductions takes another) always get distinct States.
type statePool struct{ free []*State }

// AcquireState returns fresh bookkeeping for env's nodes — equal, field by
// field, to NewState(n) — from the execution's free list, allocating only
// when every pooled State is held. Pair every AcquireState with a
// ReleaseState once nothing reads the State any more: the per-phase and
// per-iteration sparsifications of one execution then share a few n-sized
// States instead of allocating and initialising one each.
func AcquireState(env *sim.Env) *State {
	p := sharedStatePool(env)
	if k := len(p.free); k > 0 {
		st := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return st
	}
	return NewState(env.F.N())
}

// ReleaseState resets st in O(touched nodes) and returns it to env's free
// list. st must not be used afterwards.
func ReleaseState(env *sim.Env, st *State) {
	st.reset()
	p := sharedStatePool(env)
	p.free = append(p.free, st)
}

func sharedStatePool(env *sim.Env) *statePool {
	if v, ok := env.CacheGet(statePoolKey{}); ok {
		return v.(*statePool)
	}
	p := &statePool{}
	env.CachePut(statePoolKey{}, p)
	return p
}

// reset restores the NewState values of every touched node and drops the
// batches and schedule caches, keeping the capacity of what is reused.
func (st *State) reset() {
	for _, v := range st.touched {
		st.Parent[v] = -1
		st.SubtreeSize[v] = 1
		st.Children[v] = st.Children[v][:0]
	}
	st.touched = st.touched[:0]
	clear(st.Batches) // drop the schedules for the collector
	st.Batches = st.Batches[:0]
	clear(st.events)
}

// Call configures one Sparsification execution (Alg. 2).
type Call struct {
	Cfg config.Config
	// Sched is the transmission selector: an (N,κ,ρ)-wcss for clustered
	// sets, a lifted (N,κ)-wss for unclustered ones.
	Sched selectors.PairSelector
	// ClusterOf returns each node's cluster (nil = unclustered, cluster 1).
	ClusterOf func(node int) int32
	// Clustered selects the clustered variant (local-minima independent
	// sets, cross-cluster filtering); unclustered uses the simulated MIS.
	Clustered bool
	// Gamma is the iteration count Λ (the density bound being reduced).
	Gamma int
	// Events optionally shares a per-selector schedule cache across calls
	// that outlive this State (e.g. the radius-reduction loop); when nil,
	// the State hosts one per selector.
	Events *comm.EventLists
}

// Result reports one call's outcome.
type Result struct {
	Survivors []int // Active ∪ Prnts, ascending node order
	// BatchStart/BatchEnd delimit st.Batches entries created by this call.
	BatchStart, BatchEnd int
}

func constOne(int) int32 { return 1 }

// scratch is the pooled per-call working state: generation-stamped per-node
// sets/maps and edge-aligned Y-flag views, replacing the per-iteration map
// allocations of the original implementation.
type scratch struct {
	inY    flat.BoolStamp // independent-set membership
	yVal   []int8         // edge-aligned heard Y-flag values
	yStamp []int64        // edge-aligned stamps for yVal
	yGen   int64
	parent flat.Int32Stamp // child -> chosen parent node
	newPar flat.BoolStamp  // nodes that acquired a child this iteration
	sends  []int           // choose-pass sender scratch
	isPar  flat.BoolStamp  // the chosen parents: the choose pass's addressees
	pars   []int           // the chosen parents, in active order
	prnts  []int           // parents accumulated across iterations
	adj    flat.Adjacency  // the current iteration's proximity graph
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resetEdges sizes the edge-aligned view for the current graph.
func (sc *scratch) resetEdges(edges int) {
	if cap(sc.yStamp) < edges {
		sc.yVal = make([]int8, edges)
		sc.yStamp = make([]int64, edges)
		sc.yGen = 0
	}
	sc.yVal = sc.yVal[:edges]
	sc.yStamp = sc.yStamp[:edges]
	sc.yGen++
}

// Run executes Algorithm 2 on the active set, mutating st.
func Run(env *sim.Env, st *State, active []int, call Call) (*Result, error) {
	if err := call.Cfg.Validate(); err != nil {
		return nil, err
	}
	if call.Gamma < 1 {
		call.Gamma = 1
	}
	clusterOf := call.ClusterOf
	if clusterOf == nil {
		clusterOf = constOne
	}
	res := &Result{BatchStart: len(st.Batches)}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.prnts = sc.prnts[:0]

	current := append([]int(nil), active...)
	for i := 0; i < call.Gamma; i++ {
		startRounds := env.Rounds()
		changed, err := iterate(env, st, &current, sc, call, clusterOf)
		if err != nil {
			return nil, err
		}
		iterRounds := env.Rounds() - startRounds
		if !changed && call.Cfg.EarlyStop {
			// Fixed point: every remaining iteration would replay the same
			// deterministic computation on identical state. Account the
			// rounds exactly and stop simulating.
			env.Skip(int64(call.Gamma-1-i) * iterRounds)
			break
		}
	}

	survivors := append([]int(nil), current...)
	survivors = append(survivors, sc.prnts...)
	sort.Ints(survivors)
	res.Survivors = survivors
	res.BatchEnd = len(st.Batches)
	return res, nil
}

// iterate performs one iteration of the main loop of Alg. 2. It reports
// whether the state changed (children or parents were created).
func iterate(
	env *sim.Env,
	st *State,
	current *[]int,
	sc *scratch,
	call Call,
	clusterOf func(int) int32,
) (bool, error) {
	activeSet := *current
	g, err := proximity.Construct(env, call.Cfg, call.Sched, st.eventLists(call), &sc.adj, activeSet, clusterOf, call.Clustered)
	if err != nil {
		return false, fmt.Errorf("sparsify: proximity construction: %w", err)
	}
	n := env.F.N()

	// Independent set Y of the proximity graph (fills sc.inY).
	independentSet(env, g, activeSet, call, sc)

	// One schedule pass: everyone announces its Y flag, so prospective
	// children learn which neighbours joined Y. Heard flags are stored
	// edge-aligned (parallel to the CSR edge array); flags from non-edge
	// senders are dropped, exactly as the old per-node view maps were never
	// consulted off-edge.
	flag := func(v int) sim.Msg {
		b := int32(0)
		if sc.inY.Has(v) {
			b = 1
		}
		return sim.Msg{Kind: sim.KindYFlag, From: int32(env.IDs[v]), A: b}
	}
	sc.resetEdges(g.Adj.NumEdges())
	for _, d := range g.Sched.Run(env, activeSet, flag, activeSet, nil) {
		if d.Msg.Kind != sim.KindYFlag {
			continue
		}
		if e := g.Adj.EdgeIndex(d.Receiver, d.Sender); e >= 0 {
			v := int8(0)
			if d.Msg.A == 1 {
				v = 1
			}
			sc.yVal[e] = v
			sc.yStamp[e] = sc.yGen
		}
	}

	// Children pick parents: min-ID Y-neighbour (line 8).
	sc.parent.Reset(n)
	sc.sends = sc.sends[:0]
	for _, v := range activeSet {
		if sc.inY.Has(v) {
			continue
		}
		best := -1
		lo, _ := g.Adj.Span(v)
		for i, u32 := range g.Adj.Neighbors(v) {
			e := lo + i
			if sc.yStamp[e] == sc.yGen && sc.yVal[e] == 1 {
				u := int(u32)
				if best < 0 || env.IDs[u] < env.IDs[best] {
					best = u
				}
			}
		}
		if best >= 0 {
			sc.parent.Set(v, int32(best))
			sc.sends = append(sc.sends, v)
		}
	}

	// One schedule pass: children notify parents, piggybacking their
	// completed subtree size (used by imperfect labeling). Only the chosen
	// parent reads a choose message, so the pass listens at the parents.
	chooseSenders := sc.sends
	sort.Ints(chooseSenders)
	sc.isPar.Reset(n)
	for _, v := range chooseSenders {
		p, _ := sc.parent.Get(v)
		sc.isPar.Set(int(p))
	}
	sc.pars = sc.pars[:0]
	for _, v := range activeSet {
		if sc.isPar.Has(v) {
			sc.pars = append(sc.pars, v)
		}
	}
	chooseMsg := func(v int) sim.Msg {
		p, _ := sc.parent.Get(v)
		return sim.Msg{
			Kind: sim.KindChoose,
			From: int32(env.IDs[v]),
			A:    int32(env.IDs[p]),
			B:    int32(st.SubtreeSize[v]),
		}
	}
	sc.newPar.Reset(n)
	newParents := 0
	for _, d := range g.Sched.Run(env, chooseSenders, chooseMsg, sc.pars, activeSet) {
		if d.Msg.Kind != sim.KindChoose {
			continue
		}
		p := d.Receiver
		if int(d.Msg.A) != env.IDs[p] {
			continue // addressed to a different parent
		}
		child := env.NodeOf(int(d.Msg.From))
		if child < 0 {
			continue
		}
		if chosen, ok := sc.parent.Get(child); !ok || int(chosen) != p {
			continue
		}
		if alreadyChild(st, p, child) {
			continue
		}
		if len(st.Children[p]) == 0 {
			st.touched = append(st.touched, int32(p))
		}
		st.Children[p] = append(st.Children[p], ChildRef{Node: child, Size: int(d.Msg.B)})
		st.SubtreeSize[p] += int(d.Msg.B)
		if !sc.newPar.Has(p) {
			sc.newPar.Set(p)
			newParents++
		}
	}

	// Remove children and (new) parents from Active (lines 10–12). A child
	// is removed once its choose-message handshake is recorded — guaranteed
	// for proximity-graph edges by Lemma 7, checked defensively here.
	var batchChildren []int
	next := (*current)[:0]
	for _, v := range activeSet {
		p, isChild := sc.parent.Get(v)
		switch {
		case isChild && alreadyChild(st, int(p), v):
			st.touched = append(st.touched, int32(v))
			st.Parent[v] = int(p)
			batchChildren = append(batchChildren, v)
		case sc.newPar.Has(v):
			sc.prnts = append(sc.prnts, v)
		default:
			next = append(next, v)
		}
	}
	*current = next

	if len(batchChildren) > 0 {
		st.Batches = append(st.Batches, Batch{Sched: g.Sched, Children: batchChildren})
	}
	return len(batchChildren) > 0 || newParents > 0, nil
}

// alreadyChild reports whether child is already recorded under p.
func alreadyChild(st *State, p, child int) bool {
	for _, c := range st.Children[p] {
		if c.Node == child {
			return true
		}
	}
	return false
}

// independentSet computes Y into sc.inY: local minima by ID for clustered
// sets (as in Lemma 8), the simulated deterministic MIS for unclustered ones
// (Lemma 9).
func independentSet(env *sim.Env, g *proximity.Graph, activeSet []int, call Call, sc *scratch) {
	sc.inY.Reset(env.F.N())
	if call.Clustered {
		for _, v := range activeSet {
			minNb := -1
			for _, u32 := range g.Adj.Neighbors(v) {
				u := int(u32)
				if minNb < 0 || env.IDs[u] < env.IDs[minNb] {
					minNb = u
				}
			}
			if minNb < 0 || env.IDs[v] < env.IDs[minNb] {
				sc.inY.Set(v)
			}
		}
		return
	}
	exchange := func(msgOf func(int) sim.Msg) []sim.Delivery {
		return g.Sched.Run(env, activeSet, msgOf, activeSet, nil)
	}
	res := mis.Compute(activeSet, func(v int) int { return env.IDs[v] }, g.Adj, exchange, mis.Options{
		IDBound: env.N,
		Factor:  call.Cfg.MISColorFactor,
		Seed:    call.Cfg.Seed,
		Fast:    call.Cfg.FastMIS,
	})
	for _, v := range activeSet {
		if res.InMIS[v] {
			sc.inY.Set(v)
		}
	}
}
