package exp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dcluster/internal/config"
	"dcluster/internal/lowerbound"
	"dcluster/internal/proximity"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// proximityConstruct wraps the unclustered Algorithm 1 invocation used by
// the Fig2 experiment.
func proximityConstruct(env *sim.Env, cfg config.Config, wss *selectors.WSS, active []int) (*proximity.Graph, error) {
	return proximity.Construct(env, cfg, selectors.Lift(wss), nil, nil, active, func(int) int32 { return 1 }, false)
}

// Fig56 runs the single-gadget lower-bound experiment: adversarial ID
// assignment (Lemma 13) against deterministic oblivious schedules, the
// measured delivery round, and the randomized comparison. The gadget
// geometry requires the exact distance-matrix field, so the engine
// parameter exists only for signature uniformity with the other runners.
func Fig56(size Size, _ Engine) (string, error) {
	deltas := []int{4, 8, 16}
	if size == Full {
		deltas = []int{4, 8, 16, 32, 64}
	}
	params := lowerbound.GadgetParams()
	var b strings.Builder
	fmt.Fprintf(&b, "E7 / Figures 5–6 + Lemma 13 — rounds to push a message through one gadget\n")
	fmt.Fprintf(&b, "deterministic schedules face adversarial IDs; the blocked prefix is the certified Ω(∆) bound.\n\n")
	fmt.Fprintf(&b, "%6s | %10s %12s %12s | %10s %12s | %10s\n",
		"∆", "ssf:block", "ssf:adv", "ssf:naive", "rr:block", "rr:adv", "rand:decay")
	for _, delta := range deltas {
		chain, err := lowerbound.BuildGadget(delta, params)
		if err != nil {
			return "", err
		}
		f, err := chain.Field()
		if err != nil {
			return "", err
		}
		pool := make([]int, 4*(delta+2))
		for i := range pool {
			pool[i] = i + 1
		}
		horizon := 200000

		ssf, err := selectors.NewSSF(len(pool), delta+2, 1, 7)
		if err != nil {
			return "", err
		}
		ssfSched := lowerbound.SelectorSchedule{Sel: ssf}
		ssfAsg, err := lowerbound.Adversary(ssfSched, pool, delta, horizon)
		if err != nil {
			return "", err
		}
		ssfAdv := lowerbound.DeliveryRound(chain, f, ssfSched, ssfAsg.CoreIDs, horizon)
		ssfNaive := lowerbound.NaiveDeliveryRound(chain, f, ssfSched, pool, horizon)

		rrSched := lowerbound.RoundRobinSchedule{N: len(pool)}
		rrAsg, err := lowerbound.Adversary(rrSched, pool, delta, horizon)
		if err != nil {
			return "", err
		}
		rrAdv := lowerbound.DeliveryRound(chain, f, rrSched, rrAsg.CoreIDs, horizon)

		decay := decayCrossing(chain, delta, 5)

		fmt.Fprintf(&b, "%6d | %10d %12s %12s | %10d %12s | %10d\n",
			delta,
			ssfAsg.BlockedRounds, fmtRound(ssfAdv), fmtRound(ssfNaive),
			rrAsg.BlockedRounds, fmtRound(rrAdv), decay)
	}
	b.WriteString("\nshape: deterministic adversarial delivery grows linearly in ∆; randomized decay stays logarithmic (Theorem 6 separation).\n")
	return b.String(), nil
}

func fmtRound(r int) string {
	if r < 0 {
		return "timeout"
	}
	return fmt.Sprintf("%d", r)
}

// decayCrossing measures the randomized decay crossing time of one gadget
// (median-ish over a fixed seed).
func decayCrossing(chain *lowerbound.Chain, delta int, seed int64) int {
	f, err := chain.Field()
	if err != nil {
		return -1
	}
	g := chain.Gadgets[0]
	rng := rand.New(rand.NewSource(seed))
	depth := int(math.Ceil(math.Log2(float64(2*delta)))) + 1
	var txs []int
	for r := 1; r <= 1024*depth; r++ {
		p := math.Pow(2, -float64((r-1)%depth+1))
		txs = txs[:0]
		for _, v := range g.Core {
			if rng.Float64() < p {
				txs = append(txs, v)
			}
		}
		for _, rec := range f.Deliver(txs, []int{g.T}, nil) {
			if rec.Receiver == g.T {
				return r
			}
		}
	}
	return -1
}

// Fig7 runs the chained-gadget experiment: flooding with a deterministic
// oblivious schedule across D/κ gadgets versus the randomized decay,
// exhibiting the Ω(D·∆^{1−1/α}) vs D·polylog separation. Like Fig56 it is
// pinned to the distance-matrix field; the engine parameter is unused.
func Fig7(size Size, _ Engine) (string, error) {
	type cfgT struct{ delta, gadgets int }
	cases := []cfgT{{4, 2}, {8, 2}, {8, 4}}
	if size == Full {
		cases = []cfgT{{4, 2}, {8, 2}, {16, 2}, {8, 4}, {8, 8}, {16, 4}}
	}
	params := lowerbound.GadgetParams()
	var b strings.Builder
	fmt.Fprintf(&b, "E8 / Figure 7 + Theorem 6 — rounds to traverse a gadget chain\n\n")
	fmt.Fprintf(&b, "%6s %8s %6s | %14s %14s | %16s\n",
		"∆", "gadgets", "n", "det:ssf-flood", "rand:decay", "D·∆^(1−1/α)")
	for _, cs := range cases {
		chain, err := lowerbound.BuildChain(cs.delta, cs.gadgets, params)
		if err != nil {
			return "", err
		}
		det, err := floodChainDeterministic(chain, cs.delta)
		if err != nil {
			return "", err
		}
		rnd, err := floodChainDecay(chain, cs.delta, 9)
		if err != nil {
			return "", err
		}
		pred := float64(cs.gadgets) * math.Pow(float64(cs.delta), 1-1/params.Alpha)
		fmt.Fprintf(&b, "%6d %8d %6d | %14s %14s | %16.1f\n",
			cs.delta, cs.gadgets, chain.N(), fmtRound(det), fmtRound(rnd), pred)
	}
	b.WriteString("\nshape: deterministic traversal tracks D·∆ (per-gadget Ω(∆) crossings); randomized tracks D·polylog.\n")
	return b.String(), nil
}

// floodChainDeterministic floods the chain with an ssf-driven oblivious
// schedule under per-gadget adversarial IDs; returns rounds until the final
// target holds the message.
func floodChainDeterministic(chain *lowerbound.Chain, delta int) (int, error) {
	f, err := chain.Field()
	if err != nil {
		return -1, err
	}
	n := chain.N()
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i + 1
	}
	ssf, err := selectors.NewSSF(n, delta+2, 1, 7)
	if err != nil {
		return -1, err
	}
	sched := lowerbound.SelectorSchedule{Sel: ssf}

	// Adversarial IDs per gadget core; everyone else keeps pool order.
	ids := make([]int, n)
	used := make([]bool, n+1)
	for _, g := range chain.Gadgets {
		sub := make([]int, 0, len(g.Core)+8)
		for id := 1; id <= n && len(sub) < len(g.Core)+4; id++ {
			if !used[id] {
				sub = append(sub, id)
			}
		}
		asg, err := lowerbound.Adversary(sched, sub, chain.Delta, 100000)
		if err != nil {
			return -1, err
		}
		for i, v := range g.Core {
			ids[v] = asg.CoreIDs[i]
			used[asg.CoreIDs[i]] = true
		}
	}
	next := 1
	for v := 0; v < n; v++ {
		if ids[v] != 0 {
			continue
		}
		for used[next] {
			next++
		}
		ids[v] = next
		used[next] = true
	}

	return floodRun(chain, f, func(v, r int) bool {
		return sched.Transmits(ids[v], r)
	}, 2_000_000)
}

// floodChainDecay floods the chain with the randomized decay protocol.
func floodChainDecay(chain *lowerbound.Chain, delta int, seed int64) (int, error) {
	f, err := chain.Field()
	if err != nil {
		return -1, err
	}
	depth := int(math.Ceil(math.Log2(float64(2*delta)))) + 1
	rng := rand.New(rand.NewSource(seed))
	return floodRun(chain, f, func(v, r int) bool {
		p := math.Pow(2, -float64((r-1)%depth+1))
		return rng.Float64() < p
	}, 2_000_000)
}

// floodRun simulates relay flooding: awake nodes transmit per the decision
// function; reception of the message wakes a node. Returns the round the
// final target wakes, or -1.
func floodRun(chain *lowerbound.Chain, f *sinr.Field, decide func(v, r int) bool, horizon int) (int, error) {
	n := chain.N()
	awake := make([]bool, n)
	awake[chain.Source] = true
	target := chain.FinalTarget()
	var txs []int
	var buf []sinr.Reception
	for r := 1; r <= horizon; r++ {
		txs = txs[:0]
		for v := 0; v < n; v++ {
			if awake[v] && decide(v, r) {
				txs = append(txs, v)
			}
		}
		buf = f.Deliver(txs, nil, buf[:0])
		for _, rec := range buf {
			awake[rec.Receiver] = true
		}
		if awake[target] {
			return r, nil
		}
	}
	return -1, nil
}
