// Package proximity implements Algorithm 1 (ProximityGraphConstruction) and
// the Close Neighbors Schedule of Lemma 7: given a (clustered) set of nodes
// and a witnessed (cluster-aware) strong selector, it builds a constant-
// degree graph containing every close pair as an edge, together with a
// replayable O(log N)-round schedule on which every graph edge exchanges
// messages.
package proximity

import (
	"fmt"
	"sort"
	"sync"

	"dcluster/internal/comm"
	"dcluster/internal/config"
	"dcluster/internal/flat"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
)

// Graph is the result of one proximity-graph construction.
type Graph struct {
	// Active are the participating node indices.
	Active []int
	// Adj is the proximity graph (Ev in Alg. 1) in CSR form over dense node
	// indices; neighbour lists are ID-sorted. For close pairs the edge is
	// guaranteed; the degree is at most κ.
	Adj *flat.Adjacency
	// Sched replays the exchange schedule: any subset of the construction's
	// active set can re-send on it, and every delivery recorded during the
	// exchange phase between surviving nodes re-occurs (reception
	// monotonicity under fewer transmitters, β > 1).
	Sched *Schedule
}

// Schedule is a replayable exchange schedule: the selector plus a snapshot
// of the active set and cluster assignment at construction time (stored as
// a node-index-sorted array pair, not a map — membership is a binary
// search). Passes run through a private event scheduler that caches each
// member's scheduled rounds, so the construction exchange pays the schedule
// evaluation once and every replay (confirmations, flag/choose passes, MIS
// exchanges, batch replays) merges cached event lists instead of re-hashing
// rounds×senders.
type Schedule struct {
	sel      selectors.PairSelector
	ids      []int   // env.IDs at construction (shared slice, read-only)
	actNodes []int32 // construction-time active set, ascending node index
	actClu   []int32 // parallel cluster snapshot
	ev       *comm.EventScheduler

	// Per-pass sender snapshot (scratch reused across passes).
	members []int
	mIDs    []int
	mClu    []int
}

// Len returns the number of rounds of one replay pass.
func (s *Schedule) Len() int { return s.sel.Len() }

// memberIdx returns node's position in the sorted snapshot, or -1.
func (s *Schedule) memberIdx(node int) int {
	i := sort.Search(len(s.actNodes), func(i int) bool { return int(s.actNodes[i]) >= node })
	if i < len(s.actNodes) && int(s.actNodes[i]) == node {
		return i
	}
	return -1
}

// Member reports whether node was active at construction time.
func (s *Schedule) Member(node int) bool { return s.memberIdx(node) >= 0 }

// Members returns the construction-time active set in ascending node-index
// order (shared backing array, read-only).
func (s *Schedule) Members() []int32 { return s.actNodes }

// snapshotSenders filters senders down to construction-time members and
// fills the parallel ID/cluster slices the event scheduler consumes.
func (s *Schedule) snapshotSenders(senders []int) {
	s.members = s.members[:0]
	s.mIDs = s.mIDs[:0]
	s.mClu = s.mClu[:0]
	for _, v := range senders {
		i := s.memberIdx(v)
		if i < 0 {
			continue
		}
		s.members = append(s.members, v)
		s.mIDs = append(s.mIDs, s.ids[v])
		s.mClu = append(s.mClu, int(s.actClu[i]))
	}
}

// Run replays the schedule with the given senders (must be a subset of the
// construction-time active set; others are silently skipped, preserving the
// subset property that reception guarantees rely on). Every sender
// transmits msgOf(node) in its scheduled rounds; silent rounds are
// fast-forwarded, with round accounting identical to the naive loop.
// listeners and within are as in comm.EventScheduler.Pass: within is nil
// unless the pass is addressed, when listeners holds the addressees, a
// subsequence of within.
//
// The returned slice is backed by the environment's shared pass buffer
// (Env.PassBuf), reused by the next pass on the same environment; callers
// consume a pass's deliveries before starting another pass (every caller in
// this repository does).
func (s *Schedule) Run(env *sim.Env, senders []int, msgOf func(node int) sim.Msg, listeners, within []int) []sim.Delivery {
	all := env.PassBuf()
	s.pass(env, senders, msgOf, listeners, within, func(_ int, ds []sim.Delivery) {
		all = sim.AppendPass(all, ds)
	})
	env.SetPassBuf(all)
	return all
}

// pass replays the schedule like Run but streams: sink receives each
// non-silent round's schedule index and deliveries (valid only during the
// call) instead of an accumulated pass.
func (s *Schedule) pass(env *sim.Env, senders []int, msgOf func(node int) sim.Msg, listeners, within []int, sink func(round int, ds []sim.Delivery)) {
	s.snapshotSenders(senders)
	s.ev.Pass(env, s.members, s.mIDs, s.mClu, msgOf, listeners, within, sink)
}

// scratch holds the per-construction working state, pooled across calls so
// a construction allocates only what outlives it (the Schedule snapshot).
type scratch struct {
	clu flat.Int32Stamp // active node -> cluster snapshot (O(1) lookup)

	// Exchange receptions as flat (receiver, sender, round) triples, grouped
	// by receiver with a stable counting scatter.
	recS, recRound []int32
	recR           []int32
	cnt            flat.Int32Stamp // per-receiver count, then write cursor
	gS, gRound     []int32         // grouped by receiver

	spanS, spanE flat.Int32Stamp // receiver -> grouped span

	in, rem flat.BoolStamp // filtering membership / removal
	inList  []int32

	isAddr flat.BoolStamp // a confirmation pass's addressees
	addrs  []int          // the addressees, in active order

	candS, candE flat.Int32Stamp // node -> candidate span in candBuf
	candBuf      []int32
	conf         []bool // aligned with candBuf: confirmed candidate positions

	senders []int
	adjB    flat.AdjacencyBuilder
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Construct runs Algorithm 1 on the active set. clusterOf gives each active
// node's cluster ID (use a constant function for unclustered sets, paired
// with a lifted wss). clustered controls the "ignore other clusters"
// filtering rule. The round cost is (κ+1)·|S|.
//
// lists, when non-nil, is a shared per-selector schedule cache (see
// comm.EventLists): repeated constructions over the same selector — the
// sparsification loops — then derive each node's schedule once per
// execution instead of once per construction. nil builds a private cache.
//
// dst receives the graph's adjacency, overwriting it in place: callers that
// construct repeatedly and consume each graph before the next construction
// pass the same destination every time. nil allocates a fresh one.
func Construct(
	env *sim.Env,
	cfg config.Config,
	sched selectors.PairSelector,
	lists *comm.EventLists,
	dst *flat.Adjacency,
	active []int,
	clusterOf func(node int) int32,
	clustered bool,
) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clusterOf == nil {
		return nil, fmt.Errorf("proximity: clusterOf must not be nil")
	}
	if lists == nil {
		lists = comm.NewEventLists(sched)
	} else if lists.Selector() != sched {
		return nil, fmt.Errorf("proximity: schedule cache was built over a different selector")
	}
	n := env.F.N()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Cluster snapshot: O(1) lookup during construction, sorted array pair
	// for the Schedule that outlives it.
	sc.clu.Reset(n)
	actNodes := make([]int32, len(active))
	for i, v := range active {
		actNodes[i] = int32(v)
		sc.clu.Set(v, clusterOf(v))
	}
	sort.Slice(actNodes, func(i, j int) bool { return actNodes[i] < actNodes[j] })
	actClu := make([]int32, len(actNodes))
	for i, v := range actNodes {
		c, _ := sc.clu.Get(int(v))
		actClu[i] = c
	}
	s := &Schedule{sel: sched, ids: env.IDs, actNodes: actNodes, actClu: actClu, ev: comm.NewEventSchedulerShared(lists)}

	// Exchange phase: one full pass, everyone scheduled transmits ID+cluster;
	// the per-delivery round index is recorded for the filtering rule.
	hello := func(v int) sim.Msg {
		c, _ := sc.clu.Get(v)
		return sim.Msg{Kind: sim.KindHello, From: int32(env.IDs[v]), Cluster: c}
	}
	exchangeWithRounds(env, s, sc, active, hello)

	// Group receptions by receiver (stable counting scatter: per-receiver
	// order stays delivery order, exactly as the per-receiver append did).
	sc.cnt.Reset(n)
	for _, r := range sc.recR {
		c, _ := sc.cnt.Get(int(r))
		sc.cnt.Set(int(r), c+1)
	}
	sc.spanS.Reset(n)
	sc.spanE.Reset(n)
	total := len(sc.recR)
	if cap(sc.gS) < total {
		sc.gS = make([]int32, total)
		sc.gRound = make([]int32, total)
	}
	sc.gS = sc.gS[:total]
	sc.gRound = sc.gRound[:total]
	off := int32(0)
	for _, u := range active {
		c, _ := sc.cnt.Get(u)
		sc.spanS.Set(u, off)
		sc.cnt.Set(u, off) // becomes the write cursor
		off += c
		sc.spanE.Set(u, off)
	}
	for i, r := range sc.recR {
		pos, _ := sc.cnt.Get(int(r))
		sc.gS[pos] = sc.recS[i]
		sc.gRound[pos] = sc.recRound[i]
		sc.cnt.Set(int(r), pos+1)
	}

	// Filtering phase (local computation, no rounds). Membership ("heard
	// in-cluster") and removal are tracked in generation-stamped sets — one
	// generation per listener; the resulting candidate sets are identical
	// (removal is order-independent: w is removed iff some reception round
	// schedules it) and end sorted by ID either way.
	sc.candBuf = sc.candBuf[:0]
	sc.candS.Reset(n)
	sc.candE.Reset(n)
	for _, u := range active {
		uClu, _ := sc.clu.Get(u)
		lo, _ := sc.spanS.Get(u)
		hi, _ := sc.spanE.Get(u)
		senders := sc.gS[lo:hi]
		rounds := sc.gRound[lo:hi]
		sc.in.Reset(n)
		sc.rem.Reset(n)
		sc.inList = sc.inList[:0]
		for _, w := range senders {
			if clustered {
				wClu, _ := sc.clu.Get(int(w))
				if wClu != uClu {
					continue // ignore other clusters (Alg. 1 remark)
				}
			}
			if !sc.in.Has(int(w)) {
				sc.in.Set(int(w))
				sc.inList = append(sc.inList, w)
			}
		}
		for i, sdr := range senders {
			if !sc.in.Has(int(sdr)) {
				continue
			}
			round := int(rounds[i])
			for _, w := range sc.inList {
				if w == sdr || sc.rem.Has(int(w)) {
					continue
				}
				// w was transmitting in the round u heard sdr ⇒ (u,w) is not
				// a close pair (lookup in the schedule, line 7).
				wClu, _ := sc.clu.Get(int(w))
				if s.sel.ContainsPair(round, env.IDs[w], int(wClu)) {
					sc.rem.Set(int(w))
				}
			}
		}
		start := int32(len(sc.candBuf))
		for _, w := range sc.inList {
			if !sc.rem.Has(int(w)) {
				sc.candBuf = append(sc.candBuf, w)
			}
		}
		if int(int32(len(sc.candBuf))-start) > cfg.Kappa {
			sc.candBuf = sc.candBuf[:start] // |Cv| > κ ⇒ purge (line 9–10)
		}
		sortByID(sc.candBuf[start:], env.IDs)
		sc.candS.Set(u, start)
		sc.candE.Set(u, int32(len(sc.candBuf)))
	}

	// Confirmation phase: κ repetitions of S; in repetition j a node
	// announces its j-th candidate, and only that candidate reads it, so the
	// pass listens at the addressees alone. Confirmations are recorded per
	// candidate position (the spans are ID-sorted, so the final adjacency
	// lists come out ID-sorted with no trailing sort).
	if cap(sc.conf) < len(sc.candBuf) {
		sc.conf = make([]bool, len(sc.candBuf))
	}
	sc.conf = sc.conf[:len(sc.candBuf)]
	for i := range sc.conf {
		sc.conf[i] = false
	}
	candSpan := func(v int) []int32 {
		lo, ok := sc.candS.Get(v)
		if !ok {
			return nil
		}
		hi, _ := sc.candE.Get(v)
		return sc.candBuf[lo:hi]
	}
	for j := 0; j < cfg.Kappa; j++ {
		msg := func(v int) sim.Msg {
			c := candSpan(v)
			if j >= len(c) {
				return sim.Msg{Kind: sim.KindNone, From: int32(env.IDs[v])}
			}
			clu, _ := sc.clu.Get(v)
			return sim.Msg{
				Kind:    sim.KindConfirm,
				From:    int32(env.IDs[v]),
				Cluster: clu,
				A:       int32(env.IDs[c[j]]),
			}
		}
		sc.senders = sc.senders[:0]
		sc.isAddr.Reset(n)
		for _, v := range active {
			if c := candSpan(v); j < len(c) {
				sc.senders = append(sc.senders, v)
				sc.isAddr.Set(int(c[j]))
			}
		}
		sc.addrs = sc.addrs[:0]
		for _, u := range active {
			if sc.isAddr.Has(u) {
				sc.addrs = append(sc.addrs, u)
			}
		}
		s.pass(env, sc.senders, msg, sc.addrs, active, func(_ int, ds []sim.Delivery) {
			for _, d := range ds {
				if d.Msg.Kind != sim.KindConfirm {
					continue
				}
				u := d.Receiver
				if int(d.Msg.A) != env.IDs[u] {
					continue // confirmation addressed to someone else
				}
				lo, ok := sc.candS.Get(u)
				if !ok {
					continue
				}
				hi, _ := sc.candE.Get(u)
				for p := lo; p < hi; p++ {
					if int(sc.candBuf[p]) == d.Sender {
						sc.conf[p] = true // w ∈ Cu and v ∈ Cw evidenced
						break
					}
				}
			}
		})
	}

	if dst == nil {
		dst = &flat.Adjacency{}
	}
	sc.adjB.Reset(n)
	for _, u := range active {
		lo, _ := sc.candS.Get(u)
		hi, _ := sc.candE.Get(u)
		for p := lo; p < hi; p++ {
			if sc.conf[p] {
				sc.adjB.Add(u, int(sc.candBuf[p]))
			}
		}
	}
	sc.adjB.Build(dst, false)
	return &Graph{Active: active, Adj: dst, Sched: s}, nil
}

// sortByID insertion-sorts a candidate span by protocol ID (spans hold at
// most κ entries; IDs are unique, so the order is total).
func sortByID(span []int32, ids []int) {
	for i := 1; i < len(span); i++ {
		v := span[i]
		j := i - 1
		for j >= 0 && ids[span[j]] > ids[v] {
			span[j+1] = span[j]
			j--
		}
		span[j+1] = v
	}
}

// exchangeWithRounds runs one schedule pass recording (receiver, sender,
// round) for every delivery (the round index is needed by the filtering
// rule). The pass is the schedule's first, so it also warms the event
// scheduler's per-member round cache for every replay that follows.
func exchangeWithRounds(env *sim.Env, s *Schedule, sc *scratch, active []int, msgOf func(int) sim.Msg) {
	sc.recR = sc.recR[:0]
	sc.recS = sc.recS[:0]
	sc.recRound = sc.recRound[:0]
	s.pass(env, active, msgOf, active, nil, func(i int, ds []sim.Delivery) {
		for _, d := range ds {
			sc.recR = append(sc.recR, int32(d.Receiver))
			sc.recS = append(sc.recS, int32(d.Sender))
			sc.recRound = append(sc.recRound, int32(i))
		}
	})
}

// Rounds returns the total round cost of one construction with the given
// schedule length and κ: one exchange pass plus κ confirmation passes.
func Rounds(schedLen, kappa int) int64 {
	return int64(schedLen) * int64(kappa+1)
}
