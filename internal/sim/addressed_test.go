package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// TestAddressedRoundsServedFromEnclosingEntry pins StepPass's addressed
// rounds: a round whose listeners are a subsequence of an enclosing listener
// set is served from the entry the enclosing set captured, and delivers
// exactly what Step over the addressees delivers — the same deliveries in
// the same order, the same msgOf calls and the same statistics — plainly,
// under a fault decorator with drops, and with a budget so small that the
// memo keeps emptying, with passes run round by round and resolved on two
// sessions. Addressed rounds with no enclosing entry are computed at the
// addressees alone and then served from their own entry. The field and the
// transmitter sets are large enough that every pass, at the smallest
// addressee set too, is resolved.
func TestAddressedRoundsServedFromEnclosingEntry(t *testing.T) {
	pts := geom.UniformDisk(512, 7.9, 5)
	n := len(pts)
	// Two addressee sets, subsequences of within, taking turns by pass (as
	// the addressees of consecutive confirmation passes do).
	var within []int
	addressees := make([][]int, 2)
	for v := 0; v < n; v++ {
		if v%5 == 0 {
			continue
		}
		within = append(within, v)
		if v%3 == 1 {
			addressees[0] = append(addressees[0], v)
		}
		if v%4 != 1 {
			addressees[1] = append(addressees[1], v)
		}
	}
	rng := rand.New(rand.NewSource(9))
	var sets [][]int
	distinct := map[string]bool{}
	for len(sets) < 128 {
		txs := rng.Perm(n)[:1+rng.Intn(31)]
		if key := fmt.Sprint(txs); !distinct[key] {
			distinct[key] = true
			sets = append(sets, txs)
		}
	}
	enclosed, alone := sets[:64], sets[64:]
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		spec     string // fault spec; "" runs without the decorator
		budget   int    // 0 keeps the default
		parallel bool
	}{
		{"plain", "", 0, false},
		{"drop", "seed=3;drop=0.05", 0, false},
		{"tiny budget", "seed=3;drop=0.05", 24, false},
		{"plain/parallel", "", 0, true},
		{"drop/parallel", "seed=3;drop=0.05", 0, true},
		{"tiny budget/parallel", "seed=3;drop=0.05", 24, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newEnv := func() (*sim.Env, *innerCount) {
				inner := newInnerCount(f.Session())
				var e *sim.Env
				var ctl sim.Control
				if tc.spec == "" {
					e = sim.MustEnv(inner, nil, 0)
				} else {
					spec, err := fault.Parse(tc.spec)
					if err != nil {
						t.Fatal(err)
					}
					e = sim.MustEnv(fault.Wrap(inner, &spec), nil, 0)
					ctl.NodeFaults = &spec
				}
				e.SetControl(ctl)
				sim.SetProcs(e, 2)
				return e, inner
			}
			memo, inner := newEnv()
			if tc.budget > 0 {
				sim.SetMemoBudget(memo, tc.budget)
			}
			plain, _ := newEnv()
			wid := memo.InternListeners(within)
			lids := []uint32{memo.InternListeners(addressees[0]), memo.InternListeners(addressees[1])}
			var listeners []int
			var lid uint32

			var memoCalls, plainCalls []int
			recording := func(e *sim.Env, calls *[]int) func(int) sim.Msg {
				return func(v int) sim.Msg {
					*calls = append(*calls, v)
					return sim.Msg{Kind: sim.KindHello, From: int32(v), A: int32(e.Rounds())}
				}
			}
			memoOf, plainOf := recording(memo, &memoCalls), recording(plain, &plainCalls)
			addressed := 0
			// run executes sets as one pass, round by round in the serial
			// case, and checks every round against Step.
			run := func(sets [][]int, isAddressed bool) {
				ls, l := within, wid
				if isAddressed {
					ls, l = listeners, lid
				}
				check := func(r int, got []sim.Delivery) {
					txs := sets[r]
					want := plain.Step(txs, plainOf, ls)
					if isAddressed {
						addressed += len(got)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d, txs %v, addressed %v: memo delivered %v, Step %v", plain.Rounds(), txs, isAddressed, got, want)
					}
					if !slices.Equal(memoCalls, plainCalls) {
						t.Fatalf("round %d, txs %v, addressed %v: msgOf calls %v, Step's %v", plain.Rounds(), txs, isAddressed, memoCalls, plainCalls)
					}
					memoCalls, plainCalls = memoCalls[:0], plainCalls[:0]
				}
				if tc.parallel {
					memo.StepPass(sim.RoundsPass(sets, ls, l, wid), memoOf, check)
					return
				}
				for r, txs := range sets {
					check(r, slices.Clone(sim.StepOne(memo, txs, memoOf, ls, l, wid)))
				}
			}
			for pass := 0; pass < 4; pass++ {
				listeners, lid = addressees[pass%2], lids[pass%2]
				run(enclosed, false)
				run(enclosed, true) // served from the enclosing entries
				run(alone, true)    // computed at the addressees, then recalled
			}
			if memo.Stats() != plain.Stats() {
				t.Errorf("memo stats %+v, Step stats %+v", memo.Stats(), plain.Stats())
			}
			if addressed == 0 {
				t.Fatal("no addressee received anything; the rounds check nothing")
			}
			// One engine round per enclosed set, and per (addressee set,
			// transmitter set) pair among the others.
			live := len(enclosed) + len(addressees)*len(alone)
			switch calls := int(inner.calls.Load()); {
			case tc.budget == 0 && calls != live:
				t.Errorf("inner engine ran %d rounds, want %d", calls, live)
			case tc.budget > 0 && calls <= live:
				t.Errorf("inner engine ran %d rounds, want the tiny budget to force recaptures", calls)
			}
			if tc.parallel && inner.sessions.Load() == 0 {
				t.Error("no helper session was made; the passes never resolved in parallel")
			}

			if tc.budget > 0 {
				return
			}
			// Warmed, an addressed pass allocates nothing, whether its rounds
			// are served from the enclosing entries or from their own.
			pEnclosed := sim.RoundsPass(enclosed, listeners, lid, wid)
			pAlone := sim.RoundsPass(alone, listeners, lid, wid)
			sink := func(int, []sim.Delivery) {}
			if avg := testing.AllocsPerRun(20, func() {
				memo.StepPass(pEnclosed, hello, sink)
				memo.StepPass(pAlone, hello, sink)
			}); avg != 0 {
				t.Errorf("warmed addressed pass allocates %.1f objects, want 0", avg)
			}
		})
	}
}
