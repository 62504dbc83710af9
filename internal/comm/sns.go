// Package comm implements the basic SINR communication primitives of §3.2:
// the Sparse Network Schedule (Lemma 4) and the event-driven
// selector-schedule executor shared by the higher layers.
package comm

import (
	"fmt"

	"dcluster/internal/config"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
)

// SNS is the Sparse Network Schedule L_γ of Lemma 4: an (N, k_γ)-ssf of
// length O(log N) such that, when the participating set has constant density
// γ, every participant's message is received at every point within distance
// 1−ε of it.
//
// An SNS instance belongs to one execution: its passes run through a private
// event scheduler that caches each node's scheduled rounds across passes, so
// repeated sweeps over overlapping active sets (the radius-reduction and
// broadcast loops) pay the schedule evaluation once per node.
type SNS struct {
	sel *selectors.SSF
	ev  *EventScheduler

	ids, clusters []int                              // per-pass sender snapshot (scratch)
	all           []sim.Delivery                     // per-pass delivery accumulator (scratch)
	sink          func(round int, ds []sim.Delivery) // cached: a fresh closure per pass would allocate
}

// NewSNS builds the schedule for ID space [1..n] with the configured
// selectivity k_γ.
func NewSNS(cfg config.Config, n int) (*SNS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sel, err := selectors.NewSSF(n, cfg.SNSK, cfg.SSFFactor, cfg.Seed^0x534e53) // "SNS"
	if err != nil {
		return nil, fmt.Errorf("comm: building SNS: %w", err)
	}
	return &SNS{sel: sel, ev: NewEventScheduler(selectors.Lift(sel))}, nil
}

// snsCacheKey identifies an SNS within one execution: everything NewSNS
// derives the schedule from.
type snsCacheKey struct {
	n, k   int
	factor float64
	seed   uint64
}

// SharedSNS returns the execution-scoped SNS for (cfg, env.N), building it
// on first use. Callers that run one phase at a time (radius reductions,
// broadcast stages) share the instance — and with it the schedule lists and
// pass captures its event scheduler accumulates — instead of re-deriving
// them per call.
func SharedSNS(env *sim.Env, cfg config.Config) (*SNS, error) {
	key := snsCacheKey{n: env.N, k: cfg.SNSK, factor: cfg.SSFFactor, seed: cfg.Seed}
	if v, ok := env.CacheGet(key); ok {
		return v.(*SNS), nil
	}
	s, err := NewSNS(cfg, env.N)
	if err != nil {
		return nil, err
	}
	env.CachePut(key, s)
	return s, nil
}

// wcssCacheKey identifies a WCSS family and its schedule-list cache within
// one execution.
type wcssCacheKey struct {
	n, k, l int
	factor  float64
	seed    uint64
}

type wcssCacheEntry struct {
	sel    *selectors.WCSS
	events *EventLists
}

// SharedWCSS returns the execution-scoped WCSS family for (cfg, env.N) and
// a schedule-list cache over it, building both on first use. Sharing the
// cache across the radius reductions and labeling sparsifications of one
// execution lets every consumer reuse the per-node scheduled-round lists the
// earlier ones derived.
func SharedWCSS(env *sim.Env, cfg config.Config) (*selectors.WCSS, *EventLists, error) {
	key := wcssCacheKey{n: env.N, k: cfg.Kappa, l: cfg.Rho, factor: cfg.WCSSFactor, seed: cfg.Seed}
	if v, ok := env.CacheGet(key); ok {
		e := v.(wcssCacheEntry)
		return e.sel, e.events, nil
	}
	sel, err := selectors.NewWCSS(env.N, cfg.Kappa, cfg.Rho, cfg.WCSSFactor, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	e := wcssCacheEntry{sel: sel, events: NewEventLists(sel)}
	env.CachePut(key, e)
	return e.sel, e.events, nil
}

// Len returns the schedule length.
func (s *SNS) Len() int { return s.sel.Len() }

// Pass executes one full pass of the schedule. Every node in active
// transmits msgOf(node) in the rounds its ID is scheduled; listeners
// restricts reception bookkeeping (nil = everyone). sink receives each
// non-silent round's schedule index and deliveries, valid only during the
// call (like Env.Step results), in round order; silent rounds are
// fast-forwarded. Callers that consume deliveries one at a time take the
// pass this way, so no delivery is copied into a pass buffer.
func (s *SNS) Pass(env *sim.Env, active []int, msgOf func(node int) sim.Msg, listeners []int, sink func(round int, ds []sim.Delivery)) {
	s.ids = s.ids[:0]
	s.clusters = s.clusters[:0]
	for _, v := range active {
		s.ids = append(s.ids, env.IDs[v])
		s.clusters = append(s.clusters, 1)
	}
	s.ev.Pass(env, active, s.ids, s.clusters, msgOf, listeners, nil, sink)
}

// Run is Pass with the deliveries accumulated: all deliveries across the
// pass are returned in round order. Only callers that need the whole pass
// at once use it: the MIS exchange, whose transport returns one pass's
// deliveries, and tests.
//
// The returned slice is backed by the environment's shared pass buffer
// (Env.PassBuf), reused by the next pass on the same environment; callers
// consume a pass's deliveries before starting another pass (every caller in
// this repository does).
func (s *SNS) Run(env *sim.Env, active []int, msgOf func(node int) sim.Msg, listeners []int) []sim.Delivery {
	if s.sink == nil {
		s.sink = func(_ int, ds []sim.Delivery) { s.all = sim.AppendPass(s.all, ds) }
	}
	s.all = env.PassBuf()
	s.Pass(env, active, msgOf, listeners, s.sink)
	all := s.all
	s.all = nil
	env.SetPassBuf(all)
	return all
}
