// Package broadcast implements the paper's communication problems on top of
// the clustering machinery: LocalBroadcast (Alg. 7, Theorem 2), sparse
// multiple-source / global broadcast (Alg. 8, Theorem 3), the wake-up
// protocol (Theorem 4) and leader election (Theorem 5).
package broadcast

import (
	"fmt"

	"dcluster/internal/comm"
	"dcluster/internal/config"
	"dcluster/internal/core"
	"dcluster/internal/labeling"
	"dcluster/internal/sim"
	"dcluster/internal/sparsify"
)

// LocalInput parameterises LocalBroadcast.
type LocalInput struct {
	Cfg config.Config
	// Nodes is the participating set V (all awake at round 0).
	Nodes []int
	// Delta is the known density bound ∆.
	Delta int
}

// LocalResult reports the outcome of LocalBroadcast.
type LocalResult struct {
	// Assignment is the 1-clustering built in step 1.
	Assignment *core.Assignment
	// Label holds the imperfect labels from step 2.
	Label []int32
	// Heard[u] is the set of senders whose payload u received at any point
	// of step 3 (the SNS sweeps) — the delivery evidence used to verify the
	// local broadcast guarantee.
	Heard map[int]map[int]bool
	// Rounds is the total round cost.
	Rounds int64
}

// Local runs Algorithm 7: Clustering, imperfect labeling, then ∆ executions
// of the Sparse Network Schedule, the l-th restricted to label l. Total
// cost O(∆·log N·log*N) (Theorem 2).
func Local(env *sim.Env, in LocalInput) (*LocalResult, error) {
	if err := in.Cfg.Validate(); err != nil {
		return nil, err
	}
	start := env.Rounds()
	env.MarkPhase("local-broadcast:clustering")
	asg, err := core.Cluster(env, core.ClusterInput{Cfg: in.Cfg, Nodes: in.Nodes, Gamma: in.Delta})
	if err != nil {
		return nil, fmt.Errorf("broadcast: clustering: %w", err)
	}

	env.MarkPhase("local-broadcast:labeling")
	label, err := labelClustered(env, in.Cfg, in.Nodes, asg, in.Delta)
	if err != nil {
		return nil, fmt.Errorf("broadcast: labeling: %w", err)
	}

	env.MarkPhase("local-broadcast:sns-sweeps")
	sns, err := comm.SharedSNS(env, in.Cfg)
	if err != nil {
		return nil, err
	}
	heard, err := snsSweeps(env, sns, in.Nodes, label, in.Nodes)
	if err != nil {
		return nil, err
	}
	return &LocalResult{
		Assignment: asg,
		Label:      label,
		Heard:      heard,
		Rounds:     env.Rounds() - start,
	}, nil
}

// labelClustered builds the imperfect labeling of a clustered set: one
// clustered FullSparsification (fresh forest) followed by the Lemma 11
// tree labeling.
func labelClustered(env *sim.Env, cfg config.Config, nodes []int, asg *core.Assignment, gamma int) ([]int32, error) {
	wcss, events, err := comm.SharedWCSS(env, cfg)
	if err != nil {
		return nil, err
	}
	st := sparsify.AcquireState(env)
	defer sparsify.ReleaseState(env, st)
	if gamma > len(nodes) {
		gamma = len(nodes)
	}
	if gamma < 1 {
		gamma = 1
	}
	levels, err := sparsify.Full(env, st, nodes, sparsify.Call{
		Cfg:       cfg,
		Sched:     wcss,
		Events:    events,
		ClusterOf: func(v int) int32 { return asg.ClusterOf[v] },
		Clustered: true,
		Gamma:     gamma,
	})
	if err != nil {
		return nil, err
	}
	res, err := labeling.Run(env, st, levels)
	if err != nil {
		return nil, err
	}
	return res.Label, nil
}

// snsSweeps executes one SNS pass per label value 1..maxLabel; nodes with
// label l transmit their payload in sweep l. listeners bounds reception
// bookkeeping (nil = everyone). Returns, per receiver, the set of senders
// heard.
//
// Every participant transmits in many rounds of its sweep, so each
// (receiver, sender) pair arrives many times over (about 45 times on four
// clumps of density 64). The passes stream into heardPairs, which keeps each
// pair once without a map operation per delivery; Heard is built from the
// distinct pairs at the end, each receiver's map presized.
func snsSweeps(env *sim.Env, sns *comm.SNS, nodes []int, label []int32, listeners []int) (map[int]map[int]bool, error) {
	maxLabel := int32(0)
	for _, v := range nodes {
		if label[v] > maxLabel {
			maxLabel = label[v]
		}
	}
	payload := func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])}
	}
	hp := newHeardPairs(env.F.N())
	sink := func(_ int, ds []sim.Delivery) {
		for i := range ds {
			if d := &ds[i]; d.Msg.Kind == sim.KindSNS {
				hp.add(d.Receiver, d.Sender)
			}
		}
	}
	group := make([]int, 0, len(nodes))
	for l := int32(1); l <= maxLabel; l++ {
		group = group[:0]
		for _, v := range nodes {
			if label[v] == l {
				group = append(group, v)
			}
		}
		hp.gen = l
		sns.Pass(env, group, payload, listeners, sink)
	}
	return hp.heard(), nil
}

// heardPairs collects the distinct (receiver, sender) pairs of a run of
// sweeps. Each node has one label, so the sender sets of different sweeps
// are disjoint and a pair can repeat only within one sweep. Per receiver,
// the senders heard in the current sweep gen form a chain through pairs,
// from head[u]; stamp[u] == gen marks head[u] as belonging to this sweep,
// so a new sweep starts every chain empty without clearing anything. A
// chain holds the senders one receiver hears in one sweep, a handful at
// constant density, so the duplicate check walks a few entries.
type heardPairs struct {
	gen         int32
	head, stamp []int32
	pairs       []heardPair
}

type heardPair struct {
	u, v, next int32
}

func newHeardPairs(n int) *heardPairs {
	return &heardPairs{head: make([]int32, n), stamp: make([]int32, n)}
}

// add records that receiver u heard sender v in the current sweep.
func (h *heardPairs) add(u, v int) {
	i := int32(-1)
	if h.stamp[u] == h.gen {
		i = h.head[u]
	} else {
		h.stamp[u] = h.gen
	}
	first := i
	for ; i >= 0; i = h.pairs[i].next {
		if h.pairs[i].v == int32(v) {
			return
		}
	}
	h.head[u] = int32(len(h.pairs))
	h.pairs = append(h.pairs, heardPair{u: int32(u), v: int32(v), next: first})
}

// heard builds the per-receiver sender sets, each map allocated once at
// its final size.
func (h *heardPairs) heard() map[int]map[int]bool {
	count := h.head // the chains are no longer needed
	clear(count)
	receivers := 0
	for _, p := range h.pairs {
		if count[p.u] == 0 {
			receivers++
		}
		count[p.u]++
	}
	heard := make(map[int]map[int]bool, receivers)
	for _, p := range h.pairs {
		m := heard[int(p.u)]
		if m == nil {
			m = make(map[int]bool, count[p.u])
			heard[int(p.u)] = m
		}
		m[int(p.v)] = true
	}
	return heard
}

// newSNSForTest exposes SNS construction to the package tests.
func newSNSForTest(env *sim.Env) (*comm.SNS, error) {
	return comm.NewSNS(config.Default(), env.N)
}
