package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
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
		ce := newCountEngine(f)
		return MustEnv(ce, nil, 0), ce
	}
	memo, ce := newCounted()
	memo.memo.budget = 16
	plain, _ := newCounted()

	seq := [][]int{{0}, {3}, {1, 6}, {7}, {0}, {2, 4}, {5}, {1, 6}, {3}, {0, 7}}
	empties := 0
	for pass := 0; pass < 4; pass++ {
		for _, txs := range seq {
			before, calls := len(memo.memo.rounds), ce.calls.Load()
			got := slices.Clone(StepOne(memo, txs, helloOf, nil, 0, 0))
			want := plain.Step(txs, helloOf, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, txs %v: memo delivered %v, Step %v", pass, txs, got, want)
			}
			if ce.calls.Load() > calls && len(memo.memo.rounds) <= before {
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
	StepOne(memo, a, helloOf, nil, 0, 0)
	emptied := false
	for v := 0; v < len(pts) && !emptied; v++ {
		before, calls := len(memo.memo.rounds), ce.calls.Load()
		StepOne(memo, []int{v, (v + 4) % len(pts)}, helloOf, nil, 0, 0)
		emptied = ce.calls.Load() > calls && len(memo.memo.rounds) <= before
	}
	if !emptied {
		t.Fatal("memo never emptied")
	}
	calls := ce.calls.Load()
	StepOne(memo, a, helloOf, nil, 0, 0)
	if ce.calls.Load() != calls+1 {
		t.Errorf("round after emptying reached the engine %d times, want 1", ce.calls.Load()-calls)
	}
	StepOne(memo, a, helloOf, nil, 0, 0)
	if ce.calls.Load() != calls+1 {
		t.Error("repeat of a recaptured round reached the engine, want a memo hit")
	}
}

// TestMemoEmptiedMidPass resolves passes with more distinct misses than
// one window holds, repeats among them, under a memo budget so small that
// the captures of every pass empty the memo between its windows. The
// passes are large enough to be resolved and their first window large
// enough to fan out, so with two workers it is computed on helper sessions
// too. Every round must deliver exactly what plain Step delivers, repeated
// rounds must be merged rather than recomputed, each pass must reach the
// engine the same number of times on one worker and on two, and the memo's
// probe table must stay consistent.
func TestMemoEmptiedMidPass(t *testing.T) {
	pts := geom.UniformDisk(256, 5.8, 4)
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	distinct := map[string]bool{}
	var pool [][]int
	for len(pool) < resolveJobs+44 {
		txs := rng.Perm(len(pts))[:1+rng.Intn(5)]
		if key := fmt.Sprint(txs); !distinct[key] {
			distinct[key] = true
			pool = append(pool, txs)
		}
	}
	rounds := slices.Clone(pool)
	for range 200 {
		rounds = append(rounds, pool[rng.Intn(len(pool))])
	}
	// Deliver calls of each pass: between its 300 distinct rounds and its
	// 500 rounds, as a window merges its repeats but recomputes what an
	// emptying took from the memo.
	want := []int64{431, 430, 430}

	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			ce := newCountEngine(f)
			memo := MustEnv(ce, nil, 0)
			SetProcs(memo, procs)
			memo.memo.budget = 64
			plain := MustEnv(f.Session(), nil, 0)
			for pass := range 3 {
				empties, calls := memo.memo.empties, ce.calls.Load()
				seen := 0
				memo.StepPass(RoundsPass(rounds, nil, 0, 0), helloOf, func(r int, ds []Delivery) {
					if want := plain.Step(rounds[r], helloOf, nil); !reflect.DeepEqual(ds, want) {
						t.Fatalf("pass %d, round %d, txs %v: pass delivered %v, Step %v", pass, r, rounds[r], ds, want)
					}
					seen++
				})
				if seen != len(rounds) {
					t.Fatalf("pass %d: sink saw %d rounds, want %d", pass, seen, len(rounds))
				}
				if memo.memo.empties == empties {
					t.Errorf("pass %d never emptied the memo; the budget exercises nothing", pass)
				}
				// Repeats within a window are merged; a window after an
				// emptying recomputes what the memo lost.
				if got := ce.calls.Load() - calls; got != want[pass] {
					t.Errorf("pass %d reached the engine %d times, want %d", pass, got, want[pass])
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
			if helpers := ce.sessions.Load(); procs > 1 && helpers == 0 {
				t.Error("no helper session was made; the passes never resolved in parallel")
			} else if procs == 1 && helpers != 0 {
				t.Errorf("%d helper sessions made on one worker", helpers)
			}
			if memo.Stats() != plain.Stats() {
				t.Errorf("pass stats %+v, Step stats %+v", memo.Stats(), plain.Stats())
			}
		})
	}
}

// countEngine counts physical-layer Deliver calls to observe memoization.
// Its sessions share the counter, so calls on the helper sessions of a
// parallel pass count too; sessions counts the sessions made.
type countEngine struct {
	sinr.Engine
	calls, sessions *atomic.Int64
}

func newCountEngine(f sinr.Engine) *countEngine {
	return &countEngine{Engine: f, calls: new(atomic.Int64), sessions: new(atomic.Int64)}
}

func (c *countEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	c.calls.Add(1)
	return c.Engine.Deliver(txs, listeners, dst)
}

func (c *countEngine) Session() sinr.Engine {
	c.sessions.Add(1)
	return &countEngine{Engine: c.Engine.Session(), calls: c.calls, sessions: c.sessions}
}
