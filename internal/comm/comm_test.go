package comm

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dcluster/internal/config"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

func newEnv(t *testing.T, pts []geom.Point) *sim.Env {
	t.Helper()
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	return sim.MustEnv(f, nil, 0)
}

func TestNewSNSValidatesConfig(t *testing.T) {
	var bad config.Config
	if _, err := NewSNS(bad, 10); err == nil {
		t.Error("invalid config must be rejected")
	}
	if _, err := NewSNS(config.Default(), 10); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestSNSLocalBroadcastSparseSet is the Lemma 4 guarantee: on a
// constant-density set, every participant is heard by every node within
// distance 1−ε during one pass.
func TestSNSLocalBroadcastSparseSet(t *testing.T) {
	// A sparse line: spacing 0.7 < 1−ε = 0.75, unit-ball density ≤ 3.
	pts := geom.LinePath(12, 0.7)
	env := newEnv(t, pts)
	sns, err := NewSNS(config.Default(), env.N)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]int, len(pts))
	for i := range active {
		active[i] = i
	}
	ds := sns.Run(env, active, func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])}
	}, nil)

	heard := map[[2]int]bool{}
	for _, d := range ds {
		heard[[2]int{d.Receiver, d.Sender}] = true
	}
	rad := env.F.Params().GraphRadius()
	for u := range pts {
		for v := range pts {
			if u != v && geom.Dist(pts[u], pts[v]) <= rad && !heard[[2]int{u, v}] {
				t.Errorf("neighbour %d did not hear %d during SNS", u, v)
			}
		}
	}
	if env.Rounds() != int64(sns.Len()) {
		t.Errorf("rounds = %d, want schedule length %d", env.Rounds(), sns.Len())
	}
}

func TestSNSOnlyActiveTransmit(t *testing.T) {
	pts := geom.LinePath(6, 0.7)
	env := newEnv(t, pts)
	sns, _ := NewSNS(config.Default(), env.N)
	// Only node 0 participates; all deliveries must originate from it.
	ds := sns.Run(env, []int{0}, func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])}
	}, nil)
	if len(ds) == 0 {
		t.Fatal("lone transmitter must be heard")
	}
	for _, d := range ds {
		if d.Sender != 0 {
			t.Fatalf("unexpected sender %d", d.Sender)
		}
	}
}

func TestRunSelectorListenersRestrict(t *testing.T) {
	pts := geom.LinePath(5, 0.7)
	env := newEnv(t, pts)
	sns, _ := NewSNS(config.Default(), env.N)
	ds := sns.Run(env, []int{0, 1, 2, 3, 4}, func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])}
	}, []int{4})
	for _, d := range ds {
		if d.Receiver != 4 {
			t.Fatalf("listener restriction violated: receiver %d", d.Receiver)
		}
	}
}

func TestSNSDenseSetStillTerminates(t *testing.T) {
	// Density above γ voids the delivery guarantee but the schedule still
	// runs its fixed length.
	pts := geom.UniformDisk(40, 0.4, 3)
	env := newEnv(t, pts)
	sns, _ := NewSNS(config.Default(), env.N)
	active := make([]int, len(pts))
	for i := range active {
		active[i] = i
	}
	sns.Run(env, active, func(v int) sim.Msg { return sim.Msg{Kind: sim.KindSNS} }, nil)
	if env.Rounds() != int64(sns.Len()) {
		t.Errorf("rounds = %d, want %d", env.Rounds(), sns.Len())
	}
}

// parity schedules every ID in round 0, even IDs in round 1 and odd IDs in
// round 2.
type parity struct{}

func (parity) Len() int { return 3 }

func (parity) ContainsPair(round, id, _ int) bool { return round == 0 || id%2 == round%2 }

// countEngine counts physical-layer Deliver calls. Its sessions share the
// counters, so the helper sessions of a parallel pass count too; sessions
// counts the sessions made.
type countEngine struct {
	sinr.Engine
	calls, sessions *atomic.Int64
}

func (c *countEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	c.calls.Add(1)
	return c.Engine.Deliver(txs, listeners, dst)
}

func (c *countEngine) Session() sinr.Engine {
	c.sessions.Add(1)
	return &countEngine{Engine: c.Engine.Session(), calls: c.calls, sessions: c.sessions}
}

// TestRepeatedPassServedFromMemo pins that a repeated pass never reaches the
// engine, however many transmitters its rounds hold, and that a different
// pass reaches it only for the rounds no earlier pass has run — with each
// pass run on one worker, and on two, where the first pass is large enough
// to be resolved on two sessions.
func TestRepeatedPassServedFromMemo(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(map[bool]string{false: "serial", true: "parallel"}[parallel], func(t *testing.T) {
			testRepeatedPassServedFromMemo(t, parallel)
		})
	}
}

func testRepeatedPassServedFromMemo(t *testing.T, parallel bool) {
	const n = 320 // round 0 of a full pass has 320 transmitters
	f, err := sinr.NewField(sinr.DefaultParams(), geom.LinePath(n, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	ce := &countEngine{Engine: f, calls: new(atomic.Int64), sessions: new(atomic.Int64)}
	procs := 1
	if parallel {
		procs = 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs)) // read by MustEnv
	env := sim.MustEnv(ce, nil, 0)
	es := NewEventScheduler(parity{})
	msg := func(v int) sim.Msg { return sim.Msg{Kind: sim.KindSNS, From: int32(env.IDs[v])} }
	pass := func(senders []int) []sim.Delivery {
		ids := make([]int, len(senders))
		for j, v := range senders {
			ids[j] = env.IDs[v]
		}
		var out []sim.Delivery
		es.Pass(env, senders, ids, make([]int, len(senders)), msg, nil, nil, func(_ int, ds []sim.Delivery) {
			out = append(out, ds...)
		})
		return out
	}

	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	first := pass(all)
	if calls := ce.calls.Load(); calls != 3 {
		t.Fatalf("first pass made %d Deliver calls, want 3", calls)
	}
	if helpers := ce.sessions.Load(); parallel && helpers == 0 {
		t.Error("no helper session was made; the first pass never resolved in parallel")
	} else if !parallel && helpers != 0 {
		t.Errorf("%d helper sessions made on one worker", helpers)
	}
	if second := pass(all); !reflect.DeepEqual(second, first) || ce.calls.Load() != 3 {
		t.Errorf("repeated pass: %d new Deliver calls (want 0), identical deliveries %v",
			ce.calls.Load()-3, reflect.DeepEqual(second, first))
	}

	// Even IDs (odd nodes) plus node 0: round 1 repeats the first pass's
	// round 1, rounds 0 and 2 are new.
	sub := []int{0}
	for v := 1; v < n; v += 2 {
		sub = append(sub, v)
	}
	pass(sub)
	if calls := ce.calls.Load(); calls != 5 {
		t.Errorf("subset pass made %d Deliver calls, want 2 (its repeated round served from the memo)", calls-3)
	}
}
