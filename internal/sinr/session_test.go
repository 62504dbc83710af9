package sinr

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dcluster/internal/geom"
)

// sessionTxSets builds a few deterministic transmitter sets of varying size
// (exercising both the direct-scan and grid paths of the sparse engine).
func sessionTxSets(n int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1, 8, smallTxCutoff + 5, n / 4, n / 2}
	var sets [][]int
	for _, s := range sizes {
		if s < 1 || s > n {
			continue
		}
		perm := rng.Perm(n)
		sets = append(sets, perm[:s])
	}
	return sets
}

// TestSessionDeliverMatchesEngine: a session must produce exactly the
// engine's reception sets, for both engines.
func TestSessionDeliverMatchesEngine(t *testing.T) {
	pts := geom.UniformDisk(600, 3.5, 11)
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]Engine{"dense": dense, "sparse": sparse} {
		ses := eng.Session()
		for i, txs := range sessionTxSets(len(pts), 42) {
			want := eng.Deliver(txs, nil, nil)
			got := ses.Deliver(txs, nil, nil)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s set %d: session delivered %d, engine %d", name, i, len(got), len(want))
			}
		}
	}
}

// TestSessionsDeliverConcurrently runs many sessions of one shared engine
// in parallel (the -race proof for the per-run scratch split) and checks
// every session still matches the serial reference.
func TestSessionsDeliverConcurrently(t *testing.T) {
	pts := geom.UniformDisk(800, 4, 7)
	params := DefaultParams()
	for _, mk := range []struct {
		name string
		eng  func() (Engine, error)
	}{
		{"dense", func() (Engine, error) { return NewField(params, pts) }},
		{"sparse", func() (Engine, error) { return NewSparseField(params, pts) }},
	} {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			t.Parallel()
			eng, err := mk.eng()
			if err != nil {
				t.Fatal(err)
			}
			sets := sessionTxSets(len(pts), 99)
			refs := make([][]Reception, len(sets))
			for i, txs := range sets {
				refs[i] = eng.Deliver(txs, nil, nil)
			}

			const workers = 8
			var wg sync.WaitGroup
			errCh := make(chan string, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ses := eng.Session()
					// Each worker walks the sets in a different order so
					// scratch reuse patterns differ across sessions.
					for k := range sets {
						i := (k + w) % len(sets)
						got := ses.Deliver(sets[i], nil, nil)
						if !reflect.DeepEqual(refs[i], got) {
							errCh <- mk.name + ": concurrent session diverged"
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for msg := range errCh {
				t.Fatal(msg)
			}
		})
	}
}
