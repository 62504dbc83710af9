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
// bookkeeping (nil = everyone, used by the global broadcast's wake-ups).
// Returns, per receiver, the set of senders heard.
func snsSweeps(env *sim.Env, sns *comm.SNS, nodes []int, label []int32, listeners []int) (map[int]map[int]bool, error) {
	maxLabel := int32(0)
	for _, v := range nodes {
		if label[v] > maxLabel {
			maxLabel = label[v]
		}
	}
	heard := map[int]map[int]bool{}
	payload := func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])}
	}
	group := make([]int, 0, len(nodes))
	for l := int32(1); l <= maxLabel; l++ {
		group = group[:0]
		for _, v := range nodes {
			if label[v] == l {
				group = append(group, v)
			}
		}
		for _, d := range sns.Run(env, group, payload, listeners) {
			if d.Msg.Kind != sim.KindSNS {
				continue
			}
			if heard[d.Receiver] == nil {
				heard[d.Receiver] = map[int]bool{}
			}
			heard[d.Receiver][d.Sender] = true
		}
	}
	return heard, nil
}

// newSNSForTest exposes SNS construction to the package tests.
func newSNSForTest(env *sim.Env) (*comm.SNS, error) {
	return comm.NewSNS(config.Default(), env.N)
}
