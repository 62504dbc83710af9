package broadcast

import (
	"fmt"

	"dcluster/internal/comm"
	"dcluster/internal/config"
	"dcluster/internal/core"
	"dcluster/internal/sim"
)

// GlobalInput parameterises the sparse-multiple-source broadcast (Alg. 8).
type GlobalInput struct {
	Cfg config.Config
	// Sources hold the broadcast message at round 0. SMSB requires sources
	// pairwise farther than 1−ε apart; a single source always qualifies
	// (plain global broadcast, Theorem 3).
	Sources []int
	// Delta is the known density bound ∆.
	Delta int
	// MaxPhases caps the phase loop (the known linear bound on D).
	// 0 means the number of nodes.
	MaxPhases int
}

// PhaseStats records one phase of the global broadcast (the Figure 1 data).
type PhaseStats struct {
	Phase       int
	AwakeBefore int
	NewlyAwake  int
	Rounds      int64
	// Clusters is the number of distinct clusters of the newly awake set
	// after Stage 3's radius reduction.
	Clusters int
}

// GlobalResult reports the outcome of Alg. 8.
type GlobalResult struct {
	// AwakeAtPhase[node] is the phase at which the node was awakened
	// (0 = source / first SNS), or -1 if never reached.
	AwakeAtPhase []int
	// AwakeRound[node] is the simulation round of first reception, -1 if
	// never reached.
	AwakeRound []int64
	// Phases holds the per-phase trace.
	Phases []PhaseStats
	// Rounds is the total cost until completion.
	Rounds int64
}

// Covered reports whether every listed node was awakened.
func (r *GlobalResult) Covered(nodes []int) bool {
	for _, v := range nodes {
		if r.AwakeAtPhase[v] < 0 {
			return false
		}
	}
	return true
}

// Global runs Algorithm 8 (SMSBroadcast): phases of (imperfect labeling,
// label-scheduled SNS local broadcast, radius reduction) until no new nodes
// are awakened. Cost O(D·(∆+log*N)·log N) (Theorem 3).
func Global(env *sim.Env, in GlobalInput) (*GlobalResult, error) {
	if err := in.Cfg.Validate(); err != nil {
		return nil, err
	}
	if len(in.Sources) == 0 {
		return nil, fmt.Errorf("broadcast: no sources")
	}
	if in.MaxPhases <= 0 {
		in.MaxPhases = env.F.N()
	}
	start := env.Rounds()
	n := env.F.N()
	res := &GlobalResult{
		AwakeAtPhase: make([]int, n),
		AwakeRound:   make([]int64, n),
	}
	for i := range res.AwakeAtPhase {
		res.AwakeAtPhase[i] = -1
		res.AwakeRound[i] = -1
	}

	sns, err := comm.SharedSNS(env, in.Cfg)
	if err != nil {
		return nil, err
	}

	// Round 0 .. |SNS|: sources perform SNS; receivers form L1 clustered by
	// the awakening source (Alg. 8 lines 1–2).
	asg := core.NewAssignment(n)
	for _, s := range in.Sources {
		res.AwakeAtPhase[s] = 0
		res.AwakeRound[s] = env.Rounds()
		id := int32(env.IDs[s])
		asg.ClusterOf[s] = id
		asg.Center[id] = s
	}
	srcMsg := func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindBroadcast, From: int32(env.IDs[v]), Cluster: int32(env.IDs[v])}
	}
	var level []int
	sns.Pass(env, in.Sources, srcMsg, nil, func(_ int, ds []sim.Delivery) {
		level = wake(ds, asg, res, 0, level)
	})
	stampAwake(env, res, level)
	// Sources themselves belong to L1: they too must locally broadcast.
	level = append(level, in.Sources...)
	awake := countAwake(res) // kept current per phase: each wakes exactly next

	for phase := 1; phase <= in.MaxPhases && len(level) > 0; phase++ {
		phaseStart := env.Rounds()
		awakeBefore := awake

		// Stage 1: imperfect labeling of L_i.
		label, err := labelClustered(env, in.Cfg, level, asg, in.Delta)
		if err != nil {
			return nil, fmt.Errorf("broadcast: phase %d labeling: %w", phase, err)
		}

		// Stage 2: ∆ SNS executions by label; asleep nodes wake and inherit
		// the sender's cluster (2-clustering of L_{i+1}).
		next, err := wakeSweeps(env, sns, level, label, asg, res, phase)
		if err != nil {
			return nil, err
		}
		awake += len(next)

		// Stage 3: radius reduction on the newly awakened set.
		clusters := 0
		if len(next) > 0 {
			reduced, err := core.ReduceRadius(env, core.ReduceInput{
				Cfg:     in.Cfg,
				Nodes:   next,
				Current: asg,
				Gamma:   in.Delta,
			})
			if err != nil {
				return nil, fmt.Errorf("broadcast: phase %d radius reduction: %w", phase, err)
			}
			seen := map[int32]bool{}
			for _, v := range next {
				asg.ClusterOf[v] = reduced.ClusterOf[v]
				seen[reduced.ClusterOf[v]] = true
			}
			for id, c := range reduced.Center {
				asg.Center[id] = c
			}
			clusters = len(seen)
		}

		res.Phases = append(res.Phases, PhaseStats{
			Phase:       phase,
			AwakeBefore: awakeBefore,
			NewlyAwake:  len(next),
			Rounds:      env.Rounds() - phaseStart,
			Clusters:    clusters,
		})
		level = next
	}

	res.Rounds = env.Rounds() - start
	return res, nil
}

// wakeSweeps is Stage 2: label-scheduled SNS sweeps where every listener is
// the whole network; asleep receivers wake up, inherit the sender's cluster
// and join L_{i+1}.
func wakeSweeps(
	env *sim.Env,
	sns *comm.SNS,
	level []int,
	label []int32,
	asg *core.Assignment,
	res *GlobalResult,
	phase int,
) ([]int, error) {
	maxLabel := int32(0)
	for _, v := range level {
		if label[v] > maxLabel {
			maxLabel = label[v]
		}
	}
	payload := func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindBroadcast, From: int32(env.IDs[v]), Cluster: asg.ClusterOf[v]}
	}
	var next []int
	sink := func(_ int, ds []sim.Delivery) { next = wake(ds, asg, res, phase, next) }
	group := make([]int, 0, len(level))
	for l := int32(1); l <= maxLabel; l++ {
		group = group[:0]
		for _, v := range level {
			if label[v] == l {
				group = append(group, v)
			}
		}
		woken := len(next)
		sns.Pass(env, group, payload, nil, sink)
		stampAwake(env, res, next[woken:])
	}
	return next, nil
}

// wake handles one round of a wake-up pass: every asleep receiver of a
// broadcast wakes at phase, inherits its awakener's cluster and is appended
// to woken. The woken nodes never transmit in the pass that wakes them, so
// the cluster they take cannot change a message of the pass. Their
// AwakeRound is the round the pass ends in, which stampAwake sets once the
// pass returns.
func wake(ds []sim.Delivery, asg *core.Assignment, res *GlobalResult, phase int, woken []int) []int {
	for i := range ds {
		d := &ds[i]
		u := d.Receiver
		if d.Msg.Kind != sim.KindBroadcast || res.AwakeAtPhase[u] >= 0 {
			continue
		}
		res.AwakeAtPhase[u] = phase
		asg.ClusterOf[u] = d.Msg.Cluster
		woken = append(woken, u)
	}
	return woken
}

// stampAwake sets the awake round of the nodes a pass woke to the round
// the pass ended in.
func stampAwake(env *sim.Env, res *GlobalResult, woken []int) {
	for _, u := range woken {
		res.AwakeRound[u] = env.Rounds()
	}
}

func countAwake(res *GlobalResult) int {
	c := 0
	for _, p := range res.AwakeAtPhase {
		if p >= 0 {
			c++
		}
	}
	return c
}

// ValidateSourcesSparse checks that every source is a node of the network
// and the SMSB precondition d(u,v) > 1−ε for distinct sources.
func ValidateSourcesSparse(env *sim.Env, sources []int) error {
	n := env.F.N()
	for _, s := range sources {
		if s < 0 || s >= n {
			return fmt.Errorf("broadcast: source %d out of range [0, %d)", s, n)
		}
	}
	rad := env.F.Params().GraphRadius()
	for i := 0; i < len(sources); i++ {
		for j := i + 1; j < len(sources); j++ {
			if d := env.F.Distance(sources[i], sources[j]); d <= rad {
				return fmt.Errorf("broadcast: sources %d and %d at distance %.3f ≤ 1−ε", sources[i], sources[j], d)
			}
		}
	}
	return nil
}
