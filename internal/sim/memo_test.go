package sim

import (
	"reflect"
	"slices"
	"testing"

	"dcluster/internal/geom"
	"dcluster/internal/sinr"
)

// TestMemoEmptiedWhenFull shrinks the memo budget so that a repeating round
// sequence overflows it several times. Every round must deliver exactly
// what plain Step delivers, and a round repeated right after the memo was
// emptied must reach the engine once more and then be served from the memo.
func TestMemoEmptiedWhenFull(t *testing.T) {
	pts := geom.LinePath(8, 0.5)
	newCounted := func() (*Env, *countEngine) {
		f, err := sinr.NewField(sinr.DefaultParams(), pts)
		if err != nil {
			t.Fatal(err)
		}
		ce := &countEngine{Engine: f}
		return MustEnv(ce, nil, 0), ce
	}
	memo, ce := newCounted()
	memo.memo.budget = 16
	plain, _ := newCounted()

	seq := [][]int{{0}, {3}, {1, 6}, {7}, {0}, {2, 4}, {5}, {1, 6}, {3}, {0, 7}}
	empties := 0
	for pass := 0; pass < 4; pass++ {
		for _, txs := range seq {
			before, calls := len(memo.memo.rounds), ce.calls
			got := slices.Clone(memo.StepMemo(txs, helloOf, nil, 0, 0))
			want := plain.Step(txs, helloOf, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, txs %v: memo delivered %v, Step %v", pass, txs, got, want)
			}
			if ce.calls > calls && len(memo.memo.rounds) <= before {
				empties++ // a live round was captured into an emptied memo
			}
			used := 0
			for _, s := range memo.memo.slots {
				if s != 0 {
					used++
				}
			}
			if used != len(memo.memo.rounds) {
				t.Fatalf("probe table holds %d slots for %d memoized rounds", used, len(memo.memo.rounds))
			}
		}
	}
	if empties < 3 {
		t.Fatalf("memo emptied %d times, want the sequence to overflow it at least 3 times", empties)
	}
	if memo.Stats() != plain.Stats() {
		t.Errorf("memo stats %+v, Step stats %+v", memo.Stats(), plain.Stats())
	}

	// Fill the memo with a, then step fresh rounds until it is emptied.
	a := []int{2}
	memo.StepMemo(a, helloOf, nil, 0, 0)
	emptied := false
	for v := 0; v < len(pts) && !emptied; v++ {
		before, calls := len(memo.memo.rounds), ce.calls
		memo.StepMemo([]int{v, (v + 4) % len(pts)}, helloOf, nil, 0, 0)
		emptied = ce.calls > calls && len(memo.memo.rounds) <= before
	}
	if !emptied {
		t.Fatal("memo never emptied")
	}
	calls := ce.calls
	memo.StepMemo(a, helloOf, nil, 0, 0)
	if ce.calls != calls+1 {
		t.Errorf("round after emptying reached the engine %d times, want 1", ce.calls-calls)
	}
	memo.StepMemo(a, helloOf, nil, 0, 0)
	if ce.calls != calls+1 {
		t.Error("repeat of a recaptured round reached the engine, want a memo hit")
	}
}

// countEngine counts physical-layer Deliver calls to observe memoization.
type countEngine struct {
	sinr.Engine
	calls int
}

func (c *countEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	c.calls++
	return c.Engine.Deliver(txs, listeners, dst)
}
