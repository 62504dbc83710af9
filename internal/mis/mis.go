// Package mis computes a maximal independent set on the constant-degree
// proximity graphs, simulating the deterministic log*-style algorithm the
// paper cites ([34], Schneider–Wattenhofer) with message exchanges only.
//
// The implementation is Linial-style colour reduction realised with the
// repository's own ssf-derived cover-free families — from an (m, k+1)-ssf
// S_1..S_t, the sets F_x = {i : x ∈ S_i} form a k-cover-free family, so a
// node can pick a colour index owned by none of its ≤ k neighbours —
// followed by a colour-class sweep in which local colour minima join the
// MIS. Every LOCAL round is one invocation of the caller-supplied exchange
// transport (an execution of the O(log N) exchange schedule, as §4.1
// prescribes).
package mis

import (
	"math"
	"sync"

	"dcluster/internal/flat"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
)

// Exchange runs one LOCAL communication round: every participating node
// broadcasts msgOf(node); deliveries across every graph edge are guaranteed
// by the transport (Lemma 7 / Lemma 4).
type Exchange func(msgOf func(node int) sim.Msg) []sim.Delivery

// Options tunes the computation.
type Options struct {
	// IDBound is N: the initial colour space (colours start as IDs).
	IDBound int
	// Factor scales the colour-reduction ssf length.
	Factor float64
	// Seed fixes the cover-free families (shared knowledge).
	Seed uint64
	// Fast selects colour reduction + sweep (true) or iterated local
	// minima on IDs (false).
	Fast bool
	// MaxSweepRounds caps the sweep (safety net; the sweep provably ends
	// within the number of colours). 0 means no cap.
	MaxSweepRounds int
}

// Result reports the MIS and the LOCAL-round cost.
type Result struct {
	// InMIS[node] reports membership; indexed by dense node index (the
	// adjacency's index space). Only entries for the computed node set are
	// meaningful.
	InMIS       []bool
	LocalRounds int
}

// scratch is the pooled per-computation state: per-node colours and sweep
// states plus edge-aligned neighbour views (parallel to the CSR edge
// array), generation-stamped so per-round resets are O(1).
type scratch struct {
	color     []int
	next      []int
	state     []int8
	viewColor []int32
	viewState []int8
	viewStamp []int64
	viewGen   int64
	distinct  []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) reset(n, edges int) {
	if cap(sc.color) < n {
		sc.color = make([]int, n)
		sc.next = make([]int, n)
		sc.state = make([]int8, n)
	}
	sc.color = sc.color[:n]
	sc.next = sc.next[:n]
	sc.state = sc.state[:n]
	if cap(sc.viewStamp) < edges {
		sc.viewColor = make([]int32, edges)
		sc.viewState = make([]int8, edges)
		sc.viewStamp = make([]int64, edges)
		sc.viewGen = 0
	}
	sc.viewColor = sc.viewColor[:edges]
	sc.viewState = sc.viewState[:edges]
	sc.viewStamp = sc.viewStamp[:edges]
}

// Compute returns a maximal independent set of the graph (nodes, adj).
// idOf maps nodes to their protocol IDs; adj must be symmetric and cover
// the dense node index space. All decisions use only per-node local
// knowledge (own ID, neighbour IDs from the graph construction, and
// received messages).
func Compute(nodes []int, idOf func(int) int, adj *flat.Adjacency, ex Exchange, opt Options) Result {
	n := adj.N()
	inMIS := make([]bool, n)
	if len(nodes) == 0 {
		return Result{InMIS: inMIS}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(n, adj.NumEdges())
	for _, v := range nodes {
		sc.color[v] = idOf(v)
		sc.state[v] = stUndecided
	}
	rounds := 0
	if opt.Fast {
		rounds = reduceColors(nodes, adj, sc, ex, opt)
	}
	sweepRounds := sweep(nodes, adj, sc, ex, opt.MaxSweepRounds)
	for _, v := range nodes {
		if sc.state[v] == stIn {
			inMIS[v] = true
		}
	}
	return Result{InMIS: inMIS, LocalRounds: rounds + sweepRounds}
}

// maxDegree returns the maximum degree among nodes.
func maxDegree(nodes []int, adj *flat.Adjacency) int {
	d := 0
	for _, v := range nodes {
		if adj.Degree(v) > d {
			d = adj.Degree(v)
		}
	}
	return d
}

// fallbackHook, when non-nil, observes every colour-reduction fallback
// (pickFreeIndex found no free index). Test instrumentation only.
var fallbackHook func(v, nc int)

// reduceColors iteratively shrinks the colour space from [1..N] to O(1)
// colours, one LOCAL round per iteration; returns LOCAL rounds used.
// The colouring stays proper throughout: if two neighbours picked the same
// new colour c, then c ∈ F_{cv} \ F_{cu} and c ∈ F_{cu} \ F_{cv} — absurd.
//
// The fallback nc = sel.Len() + colour keeps the colouring proper when the
// heuristically-constructed ssf misses a free index (colours stay distinct:
// fallback colours inherit distinctness from the old proper colouring and
// exceed every picked index). A fallback can push worst ≥ m and fire the
// "no progress" break below even though every other node reduced its
// colour — that is deliberate loss-cutting, not an accounting bug: the
// fallback colour itself did not shrink, the invariant "colour space =
// [1..m]" is already broken for it, and the sweep that follows is correct
// for any proper colouring (it merely costs rounds proportional to the
// number of distinct colours). TestReduceColorsFallback pins this
// behaviour at an adversarial (undersized-ssf) configuration.
func reduceColors(nodes []int, adj *flat.Adjacency, sc *scratch, ex Exchange, opt Options) int {
	deg := maxDegree(nodes, adj)
	m := opt.IDBound
	if m < 2 {
		m = 2
	}
	rounds := 0
	for iter := 0; iter < 64; iter++ { // log* N + slack; loop exits on no progress
		sel, err := selectors.NewSSF(m, deg+1, opt.Factor, opt.Seed^uint64(0xC01F+iter))
		if err != nil || sel.Len() >= m {
			break // colour space already at the fixpoint scale
		}
		// One LOCAL round: broadcast current colour.
		gatherNeighborValues(adj, sc, ex, sim.KindColor)
		rounds++
		worst := 0
		overflow := false
		for _, v := range nodes {
			vals, stamps := neighborValues(adj, sc, v)
			nc := pickFreeIndex(sel, sc.color[v], vals, stamps, sc.viewGen, sc)
			if nc == 0 {
				nc = sel.Len() + sc.color[v] // fallback: stay proper, larger colour
				if fallbackHook != nil {
					fallbackHook(v, nc)
				}
				if nc > math.MaxInt32 {
					// A colour beyond int32 would truncate in the Msg.A wire
					// format of the next broadcast. Keep the current (proper,
					// in-range) colouring and stop reducing instead.
					overflow = true
				}
			}
			sc.next[v] = nc
			if nc > worst {
				worst = nc
			}
		}
		if overflow {
			break
		}
		for _, v := range nodes {
			sc.color[v] = sc.next[v]
		}
		if worst >= m {
			break // no progress
		}
		m = worst
	}
	return rounds
}

// gatherNeighborValues runs one exchange where every node broadcasts its
// value (in Msg.A) and stores, per graph edge, the latest value received
// from that neighbour (edge-aligned, generation-stamped).
func gatherNeighborValues(adj *flat.Adjacency, sc *scratch, ex Exchange, kind sim.Kind) {
	ds := ex(func(v int) sim.Msg {
		return sim.Msg{Kind: kind, A: int32(sc.color[v])}
	})
	sc.viewGen++
	for _, d := range ds {
		if d.Msg.Kind != kind {
			continue
		}
		if e := adj.EdgeIndex(d.Receiver, d.Sender); e >= 0 {
			sc.viewColor[e] = d.Msg.A
			sc.viewStamp[e] = sc.viewGen
		}
	}
}

// neighborValues returns v's edge-aligned view slices for the current
// gather generation: the neighbour colour is meaningful where the stamp
// matches.
func neighborValues(adj *flat.Adjacency, sc *scratch, v int) ([]int32, []int64) {
	lo, hi := adj.Span(v)
	return sc.viewColor[lo:hi], sc.viewStamp[lo:hi]
}

// pickFreeIndex returns the smallest index i with own ∈ S_i and u ∉ S_i for
// every distinct heard neighbour colour u, or 0 if none exists. vals/stamps
// are the node's edge-aligned view (see neighborValues); sc.distinct is the
// deduplication scratch (degrees are ≤ κ, so a linear scan dedupe-and-sort
// replaces the old map+sort with identical output).
func pickFreeIndex(sel *selectors.SSF, own int, vals []int32, stamps []int64, gen int64, sc *scratch) int {
	distinct := sc.distinct[:0]
	for i, s := range stamps {
		if s != gen {
			continue
		}
		c := int(vals[i])
		if c == own {
			continue
		}
		dup := false
		for _, d := range distinct {
			if d == c {
				dup = true
				break
			}
		}
		if !dup {
			distinct = append(distinct, c)
		}
	}
	sc.distinct = distinct
	// Insertion sort: the iteration order below must not depend on heard
	// order (it did not before — the old implementation sorted too).
	for i := 1; i < len(distinct); i++ {
		v := distinct[i]
		j := i - 1
		for j >= 0 && distinct[j] > v {
			distinct[j+1] = distinct[j]
			j--
		}
		distinct[j+1] = v
	}
	for i := 0; i < sel.Len(); i++ {
		if !sel.Contains(i, own) {
			continue
		}
		free := true
		for _, c := range distinct {
			if sel.Contains(i, c) {
				free = false
				break
			}
		}
		if free {
			return i + 1 // colours are 1-based
		}
	}
	return 0
}

// sweep state values (per node, in scratch.state).
const (
	stUndecided int8 = 0
	stIn        int8 = 1
	stOut       int8 = 2
)

// sweep runs the colour-class elimination: per LOCAL round each undecided
// node broadcasts (colour, state); a node whose colour is a strict local
// minimum among undecided neighbours joins, neighbours of members retire.
// Terminates within the number of distinct colours (+1) rounds, because the
// minimal-colour undecided node always joins.
func sweep(nodes []int, adj *flat.Adjacency, sc *scratch, ex Exchange, cap int) int {
	rounds := 0
	for {
		undecided := false
		for _, v := range nodes {
			if sc.state[v] == stUndecided {
				undecided = true
				break
			}
		}
		if !undecided {
			break
		}
		if cap > 0 && rounds >= cap {
			break
		}
		ds := ex(func(v int) sim.Msg {
			return sim.Msg{Kind: sim.KindMIS, A: int32(sc.color[v]), B: int32(sc.state[v])}
		})
		rounds++
		// Per-node view of neighbour (colour, state): edge-aligned arrays, a
		// generation bump replacing the per-round map clears.
		sc.viewGen++
		for _, d := range ds {
			if d.Msg.Kind != sim.KindMIS {
				continue
			}
			if e := adj.EdgeIndex(d.Receiver, d.Sender); e >= 0 {
				sc.viewColor[e] = d.Msg.A
				sc.viewState[e] = int8(d.Msg.B)
				sc.viewStamp[e] = sc.viewGen
			}
		}
		for _, v := range nodes {
			if sc.state[v] != stUndecided {
				continue
			}
			join := true
			lo, hi := adj.Span(v)
			for e := lo; e < hi; e++ {
				if sc.viewStamp[e] != sc.viewGen {
					continue // silent neighbour left the protocol earlier
				}
				if sc.viewState[e] == stIn {
					sc.state[v] = stOut
					join = false
					break
				}
				if sc.viewState[e] == stUndecided && int(sc.viewColor[e]) < sc.color[v] {
					join = false
				}
			}
			if join && sc.state[v] == stUndecided {
				sc.state[v] = stIn
			}
		}
	}
	return rounds
}
