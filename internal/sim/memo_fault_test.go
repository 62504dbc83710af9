package sim_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// innerCount counts the Deliver calls that reach the engine under the fault
// decorator. Its sessions share the counters, so the helper sessions of a
// parallel pass count too; sessions counts the sessions made.
type innerCount struct {
	sinr.Engine
	calls, sessions *atomic.Int64
}

func newInnerCount(f sinr.Engine) *innerCount {
	return &innerCount{Engine: f, calls: new(atomic.Int64), sessions: new(atomic.Int64)}
}

func (c *innerCount) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	c.calls.Add(1)
	return c.Engine.Deliver(txs, listeners, dst)
}

func (c *innerCount) Session() sinr.Engine {
	c.sessions.Add(1)
	return &innerCount{Engine: c.Engine.Session(), calls: c.calls, sessions: c.sessions}
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
//
// The rounds play out on a line of eight nodes. Far off lies a block of 504
// nodes whose every other node transmits in every round: it leaves the
// line's receptions alone, but gives each pass enough work to be resolved
// and its misses enough to be computed on two sessions.
func TestFaultedRoundsShareMemo(t *testing.T) {
	pts := geom.LinePath(8, 0.5)
	const line = 8
	var far []int
	for i := range 504 {
		if i%2 == 0 {
			far = append(far, len(pts))
		}
		pts = append(pts, geom.Pt(1000+0.7*float64(i), 0))
	}
	// Node 1 (a receiver of node 0) sleeps in round 3, node 6 (a
	// transmitter) in round 4.
	spec, err := fault.Parse("seed=7;drop=0.4;sleep=1@3-4;sleep=6@4-5")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(len(pts), true); err != nil {
		t.Fatal(err)
	}
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	newEnv := func() (*sim.Env, *innerCount) {
		inner := newInnerCount(f.Session())
		e := sim.MustEnv(fault.Wrap(inner, &spec), nil, 0)
		e.SetControl(sim.Control{NodeFaults: &spec})
		sim.SetProcs(e, 2)
		return e, inner
	}
	var seq [][]int
	for r := 0; r < 6; r++ {
		seq = append(seq, append([]int{0}, far...), append([]int{2, 6}, far...))
	}

	for _, tc := range []struct {
		name     string
		budget   int // 0 keeps the default
		calls    int // inner Deliver calls; 0 skips the check
		parallel bool
	}{
		// {0}, {2,6} and, in round 4 where node 6 is down, {2}.
		{"memoized", 0, 3, false},
		{"tiny budget", 3, 0, false},
		// Two passes of six rounds, resolved on two sessions.
		{"memoized/parallel", 0, 3, true},
		{"tiny budget/parallel", 3, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memo, inner := newEnv()
			if tc.budget > 0 {
				sim.SetMemoBudget(memo, tc.budget)
			}
			plain, _ := newEnv()
			var solo [][]sim.Delivery // node 0's rounds, at the line
			check := func(i int, got []sim.Delivery) {
				txs := seq[i]
				want := plain.Step(txs, hello, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, txs %v: memo delivered %v, Step %v", i+1, txs, got, want)
				}
				if txs[0] == 0 {
					var atLine []sim.Delivery
					for _, d := range got {
						if d.Receiver < line {
							atLine = append(atLine, d)
						}
					}
					solo = append(solo, atLine)
				}
			}
			if tc.parallel {
				for _, half := range [][]int{{0, 6}, {6, 12}} {
					memo.StepPass(sim.RoundsPass(seq[half[0]:half[1]], nil, 0, 0), hello, func(r int, ds []sim.Delivery) {
						check(half[0]+r, ds)
					})
				}
			} else {
				for i, txs := range seq {
					check(i, sim.StepOne(memo, txs, hello, nil, 0, 0))
				}
			}
			if memo.Stats() != plain.Stats() {
				t.Errorf("memo stats %+v, Step stats %+v", memo.Stats(), plain.Stats())
			}
			if calls := inner.calls.Load(); tc.calls > 0 && calls != int64(tc.calls) {
				t.Errorf("inner engine ran %d rounds, want %d (one per distinct surviving transmitter set)", calls, tc.calls)
			}
			if calls := inner.calls.Load(); tc.budget > 0 && calls <= 3 {
				t.Errorf("inner engine ran %d rounds, want the tiny budget to force recaptures", calls)
			}
			if tc.parallel && inner.sessions.Load() == 0 {
				t.Error("no helper session was made; the passes never resolved in parallel")
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
