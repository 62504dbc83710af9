package comm

import (
	"math/bits"
	"slices"

	"dcluster/internal/selectors"
	"dcluster/internal/sim"
)

// eventCacheBudget caps the total number of cached (node, round) schedule
// entries per EventLists (≈ 8 MB of int32s at the cap). Nodes beyond the
// budget are evaluated per pass instead of cached — correctness is
// unaffected, only the amortisation.
const eventCacheBudget = 2 << 20

// EventLists is the shareable half of the event-driven executor: the
// per-(id, cluster) scheduled-round lists of one selector family. Every
// schedule over the same selector — e.g. the proximity constructions of
// consecutive sparsification iterations — can share one EventLists, so a
// node's schedule is derived once per execution rather than once per
// construction. An EventLists belongs to one execution (selectors are
// stateless, but the cache is not goroutine-safe).
type EventLists struct {
	sel    selectors.PairSelector
	rowSel selectors.RowSelector // non-nil when sel offers prepared rows
	rows   []selectors.Row       // rowSel's prepared set of every round, built on the first miss
	m      int

	lists   map[uint64][]int32 // (id, cluster) → ascending scheduled rounds
	entries int                // total cached entries, capped by eventCacheBudget

	missing []int32 // cache-miss sender positions (scratch)

	// Per-round bucketing scratch for the prepare step of every
	// EventScheduler over this cache: allocated once per execution, not once
	// per schedule. counts and busy are all zero between prepares.
	counts []int32  // per-round transmitter counts
	offs   []int32  // per-round bucket ends after placement
	busy   []uint64 // bitmap of the rounds with a non-zero count
}

// NewEventLists prepares a shared schedule-list cache for one selector.
func NewEventLists(sel selectors.PairSelector) *EventLists {
	el := &EventLists{sel: sel, m: sel.Len(), lists: map[uint64][]int32{}}
	el.rowSel, _ = sel.(selectors.RowSelector)
	return el
}

// Selector returns the selector this cache was built over. Consumers that
// accept a caller-provided cache use it to reject a cache/selector mismatch
// (cached round lists are meaningless for a different family).
func (el *EventLists) Selector() selectors.PairSelector { return el.sel }

// EventScheduler executes selector-schedule passes event-drivenly. Two
// layers of work-avoidance stack on top of each other, each preserving
// bit-identical results and byte-identical round accounting:
//
//  1. Per-node schedules. Each sender's scheduled round list is computed
//     once (m membership tests, batched so the per-round prepared Row is
//     shared) and cached in the EventLists; a pass merges the senders'
//     lists into per-round transmitter buckets in O(m + events). Rounds
//     with no scheduled sender never surface: the pass walks from event to
//     event and declares the gaps silent via Env.NextActive.
//
//  2. Prepared passes. Consecutive passes over an identical (senders, ids,
//     clusters) triple (the common shape: MIS exchanges, sweep rounds,
//     schedule replays over one active set) reuse the prepared buckets
//     outright. The triple is compared by content, so callers may pass
//     equal sequences in distinct or reused slices, and relabelled clusters
//     for the same senders correctly re-prepare.
//
// The prepared pass then runs through Env.StepPass, over the environment's
// content-keyed reception memo under the pass's interned listener set,
// which is re-interned only when the listener slice's content changes. A
// repeated pass — or any round repeated from an earlier pass, also by an
// addressed pass over a subsequence of its listeners — is served from the
// memo without touching the physical layer, and a large pass's misses are
// computed together on several engine sessions.
//
// Within a round, transmitters appear in caller order — which downstream
// float summation and tie-breaking depend on — exactly as in the naive
// rounds×senders loop.
//
// An EventScheduler belongs to one execution (one Schedule or SNS instance)
// and is not safe for concurrent use.
type EventScheduler struct {
	el *EventLists

	events []int32   // flattened per-round sender positions (prepared pass)
	active []int32   // rounds with a non-empty bucket, ascending (prepared pass)
	ends   []int32   // ends[k]: end of active[k]'s bucket in events (prepared pass)
	sched  [][]int32 // per-sender schedule views (prepare scratch)

	// Prepared-pass identity (layer 2): buckets are reused only when the
	// full (senders, ids, clusters) triple matches by content.
	lastSenders  []int
	lastIDs      []int
	lastClusters []int
	prepared     bool

	// Listener identity: the memo ids of the listener slice and of the
	// enclosing slice of an addressed pass.
	listeners, within internedSet
}

// internedSet caches the memo's interned id of one listener slice,
// re-interned only when the slice's content changes.
type internedSet struct {
	last  []int
	isNil bool
	have  bool
	id    uint32 // Env.InternListeners(last)
}

func (s *internedSet) intern(env *sim.Env, xs []int) uint32 {
	if !s.have || s.isNil != (xs == nil) || !slices.Equal(s.last, xs) {
		s.last = append(s.last[:0], xs...)
		s.isNil = xs == nil
		s.have = true
		s.id = env.InternListeners(xs)
	}
	return s.id
}

// NewEventScheduler prepares an event-driven executor for one schedule with
// a private schedule-list cache.
func NewEventScheduler(sel selectors.PairSelector) *EventScheduler {
	return NewEventSchedulerShared(NewEventLists(sel))
}

// NewEventSchedulerShared prepares an executor over a shared schedule-list
// cache (see EventLists).
func NewEventSchedulerShared(el *EventLists) *EventScheduler {
	return &EventScheduler{el: el}
}

func eventKey(id, cluster int) uint64 {
	return uint64(uint32(id))<<32 | uint64(uint32(cluster))
}

// Pass executes one full schedule pass: senders[j] (with protocol ID ids[j]
// and cluster clusters[j]) transmits msgOf(senders[j]) in its scheduled
// rounds; listeners restricts reception as in Engine.Deliver. sink is
// invoked once per non-silent round with the schedule round index and that
// round's deliveries (valid only during the call, like Env.Step results).
// Silent rounds — before, between and after the events — are fast-forwarded
// via Env.NextActive.
//
// within is nil for an unaddressed pass. An addressed pass — messages only
// their addressees read, such as proximity confirmations — passes the
// addressees as listeners and, as within, the enclosing listener slice they
// are a subsequence of, so its rounds are served from the memo entries that
// unaddressed passes over the enclosing set captured (see Env.StepPass).
func (es *EventScheduler) Pass(
	env *sim.Env,
	senders []int,
	ids, clusters []int,
	msgOf func(node int) sim.Msg,
	listeners, within []int,
	sink func(round int, ds []sim.Delivery),
) {
	m := es.el.m
	if len(senders) == 0 {
		env.NextActive(env.Rounds() + int64(m) + 1)
		return
	}
	if !es.prepared || !slices.Equal(es.lastSenders, senders) ||
		!slices.Equal(es.lastIDs, ids) || !slices.Equal(es.lastClusters, clusters) {
		es.prepare(senders, ids, clusters)
	}
	lid := es.listeners.intern(env, listeners)
	wid := lid
	if within != nil {
		wid = es.within.intern(env, within)
	}
	env.StepPass(&sim.Pass{
		Len: m, Senders: senders, Events: es.events, Active: es.active, Ends: es.ends,
		Listeners: listeners, Lid: lid, Within: wid,
	}, msgOf, sink)
}

// ensureSchedules fills sched[j] with the ascending scheduled rounds of
// (ids[j], clusters[j]) for every sender, from the cache where possible.
// Missing lists are computed in one rounds-outer sweep over the prepared
// rows — prepared once per cache, so a batch of b new lists costs m·b
// membership tests — and cached while the budget lasts.
func (el *EventLists) ensureSchedules(ids, clusters []int, sched [][]int32) {
	miss := el.missing[:0]
	for j := range ids {
		key := eventKey(ids[j], clusters[j])
		if l, ok := el.lists[key]; ok {
			sched[j] = l
			continue
		}
		sched[j] = nil
		miss = append(miss, int32(j))
	}
	el.missing = miss
	if len(miss) == 0 {
		return
	}
	// Repeated (id, cluster) pairs within the batch build independent but
	// identical lists (the computation is deterministic); the later cache
	// store simply overwrites.
	if el.rowSel != nil && el.rows == nil {
		el.rows = make([]selectors.Row, el.m)
		for i := range el.rows {
			el.rows[i] = el.rowSel.Row(i)
		}
	}
	for i := 0; i < el.m; i++ {
		if el.rows != nil {
			row := el.rows[i]
			for _, j := range miss {
				if row.ContainsPair(ids[j], clusters[j]) {
					sched[j] = append(sched[j], int32(i))
				}
			}
		} else {
			for _, j := range miss {
				if el.sel.ContainsPair(i, ids[j], clusters[j]) {
					sched[j] = append(sched[j], int32(i))
				}
			}
		}
	}
	for _, j := range miss {
		if el.entries+len(sched[j]) > eventCacheBudget {
			continue
		}
		el.lists[eventKey(ids[j], clusters[j])] = sched[j]
		el.entries += len(sched[j])
	}
}

// prepare resolves the senders' schedules and buckets them by round:
// offs[i] ends round i's bucket in events (bucket i starts at offs[i-1]).
// The rounds that hold events are found through a bitmap of the m rounds,
// so the bucketing costs O(m/64 + events) rather than a sweep of all m
// counters. Two passes over the lists keep within-round sender order
// identical to the naive loop's (caller order), which reception arithmetic
// downstream depends on.
func (es *EventScheduler) prepare(senders []int, ids, clusters []int) {
	el := es.el
	if el.counts == nil {
		el.counts = make([]int32, el.m)
		el.offs = make([]int32, el.m)
		el.busy = make([]uint64, (el.m+63)/64)
	}
	counts, offs, busy := el.counts, el.offs, el.busy
	for cap(es.sched) < len(senders) {
		es.sched = append(es.sched[:cap(es.sched)], nil)
	}
	sched := es.sched[:len(senders)]
	el.ensureSchedules(ids, clusters, sched)
	total := 0
	for j := range senders {
		total += len(sched[j])
		for _, i := range sched[j] {
			counts[i]++
			busy[i>>6] |= 1 << (i & 63)
		}
	}
	if cap(es.events) < total {
		es.events = make([]int32, total)
	}
	es.events = es.events[:total]
	nbusy := 0
	for _, word := range busy {
		nbusy += bits.OnesCount64(word)
	}
	if cap(es.active) < nbusy {
		es.active = make([]int32, nbusy)
		es.ends = make([]int32, nbusy)
	}
	es.active = es.active[:nbusy]
	es.ends = es.ends[:nbusy]
	k, off := 0, int32(0)
	for w, word := range busy {
		busy[w] = 0 // leave the scratch clean for the next prepare
		for word != 0 {
			i := int32(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			offs[i] = off
			off += counts[i]
			counts[i] = 0
			es.active[k], es.ends[k] = i, off
			k++
		}
	}
	for j := range senders {
		for _, i := range sched[j] {
			es.events[offs[i]] = int32(j)
			offs[i]++
		}
	}
	es.lastSenders = append(es.lastSenders[:0], senders...)
	es.lastIDs = append(es.lastIDs[:0], ids...)
	es.lastClusters = append(es.lastClusters[:0], clusters...)
	es.prepared = true
}
