package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// innerCount counts the Deliver calls that reach the engine under the fault
// decorator.
type innerCount struct {
	sinr.Engine
	calls int
}

func (c *innerCount) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	c.calls++
	return c.Engine.Deliver(txs, listeners, dst)
}

func hello(int) sim.Msg { return sim.Msg{Kind: sim.KindHello} }

// TestFaultedRoundsShareMemo pins the memo's contract under fault
// injection: it holds fault-free physics keyed on the transmitters that
// survive the round's outages, and the round's faults apply on top of every
// hit. Through a fault decorator with drops, a (transmitters, listeners)
// round repeated in later rounds reaches the inner engine once, and every
// round delivers exactly what plain Step through the decorator delivers —
// also when a receiver or a transmitter is down in one repetition and up in
// the next, and when a tiny budget keeps emptying the memo.
func TestFaultedRoundsShareMemo(t *testing.T) {
	pts := geom.LinePath(8, 0.5)
	// Node 1 (a receiver of node 0) sleeps in round 3, node 6 (a
	// transmitter) in round 4.
	spec, err := fault.Parse("seed=7;drop=0.4;sleep=1@3-4;sleep=6@4-5")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(len(pts), true); err != nil {
		t.Fatal(err)
	}
	newEnv := func() (*sim.Env, *innerCount) {
		f, err := sinr.NewField(sinr.DefaultParams(), pts)
		if err != nil {
			t.Fatal(err)
		}
		inner := &innerCount{Engine: f}
		e := sim.MustEnv(fault.Wrap(inner, &spec), nil, 0)
		e.SetControl(sim.Control{NodeFaults: &spec})
		return e, inner
	}
	var seq [][]int
	for r := 0; r < 6; r++ {
		seq = append(seq, []int{0}, []int{2, 6})
	}

	for _, tc := range []struct {
		name   string
		budget int // 0 keeps the default
		calls  int // inner Deliver calls; 0 skips the check
	}{
		// {0}, {2,6} and, in round 4 where node 6 is down, {2}.
		{"memoized", 0, 3},
		{"tiny budget", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memo, inner := newEnv()
			if tc.budget > 0 {
				sim.SetMemoBudget(memo, tc.budget)
			}
			plain, _ := newEnv()
			var solo [][]sim.Delivery // node 0's rounds
			for i, txs := range seq {
				got := slices.Clone(memo.StepMemo(txs, hello, nil, 0, 0))
				want := plain.Step(txs, hello, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, txs %v: memo delivered %v, Step %v", i+1, txs, got, want)
				}
				if len(txs) == 1 {
					solo = append(solo, got)
				}
			}
			if memo.Stats() != plain.Stats() {
				t.Errorf("memo stats %+v, Step stats %+v", memo.Stats(), plain.Stats())
			}
			if tc.calls > 0 && inner.calls != tc.calls {
				t.Errorf("inner engine ran %d rounds, want %d (one per distinct surviving transmitter set)", inner.calls, tc.calls)
			}
			if tc.budget > 0 && inner.calls <= 3 {
				t.Errorf("inner engine ran %d rounds, want the tiny budget to force recaptures", inner.calls)
			}
			varied := false
			for _, ds := range solo[1:] {
				varied = varied || !reflect.DeepEqual(ds, solo[0])
			}
			if !varied {
				t.Fatal("node 0's repeated round delivered the same every time; the faults exercise nothing")
			}
		})
	}
}
