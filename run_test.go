package dcluster

// Tests for the Run session API: task/legacy equivalence, concurrent runs
// on one shared Network (the -race suite exercises both engines), context
// cancellation at round boundaries, deterministic round budgets, observer
// callbacks, and fail-fast ID validation.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// runTestNet is a small connected instance shared by the Run tests.
func runTestNet(t *testing.T, opts ...Option) *Network {
	t.Helper()
	pts := UniformDisk(40, 1.8, 3)
	net, err := NewNetwork(pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRunTasksMatchLegacy(t *testing.T) {
	net := runTestNet(t)
	spont := make([]int64, net.Len())
	for i := range spont {
		spont[i] = -1
	}
	spont[0] = 0

	t.Run("clustering", func(t *testing.T) {
		legacy, err := net.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(context.Background(), Clustering())
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != "clustering" {
			t.Errorf("Algorithm = %q", res.Algorithm)
		}
		if !reflect.DeepEqual(legacy, res.Cluster) {
			t.Error("Run(Clustering()) differs from legacy Cluster()")
		}
		if res.Stats != legacy.Stats {
			t.Errorf("stats: run %+v legacy %+v", res.Stats, legacy.Stats)
		}
	})

	t.Run("local-broadcast", func(t *testing.T) {
		legacy, err := net.LocalBroadcast()
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(context.Background(), LocalBroadcast())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, res.Local) {
			t.Error("Run(LocalBroadcast()) differs from legacy LocalBroadcast()")
		}
	})

	t.Run("global-broadcast", func(t *testing.T) {
		legacy, err := net.GlobalBroadcast(0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(context.Background(), GlobalBroadcast(0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, res.Broadcast) {
			t.Error("Run(GlobalBroadcast(0)) differs from legacy GlobalBroadcast(0)")
		}
	})

	t.Run("wake-up", func(t *testing.T) {
		legacy, err := net.WakeUp(spont)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(context.Background(), WakeUp(spont))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, res.Wake) {
			t.Error("Run(WakeUp()) differs from legacy WakeUp()")
		}
	})

	t.Run("leader-election", func(t *testing.T) {
		legacy, err := net.ElectLeader()
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(context.Background(), ElectLeader())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, res.Leader) {
			t.Error("Run(ElectLeader()) differs from legacy ElectLeader()")
		}
		if len(res.Marks) == 0 {
			t.Error("leader election must record phase marks")
		}
	})
}

// TestConcurrentRuns hammers one shared Network with parallel Run calls on
// both engines; under -race this is the concurrency-safety proof. All runs
// are deterministic, so every goroutine must see the identical result.
func TestConcurrentRuns(t *testing.T) {
	for _, kind := range []EngineKind{EngineDense, EngineSparse} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			net := runTestNet(t, WithEngine(kind))
			want, err := net.Run(context.Background(), Clustering())
			if err != nil {
				t.Fatal(err)
			}

			const workers = 8
			results := make([]*Result, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					results[w], errs[w] = net.Run(context.Background(), Clustering())
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				if !reflect.DeepEqual(want.Cluster, results[w].Cluster) || want.Stats != results[w].Stats {
					t.Fatalf("worker %d: concurrent run diverged from serial result", w)
				}
			}
		})
	}
}

// TestConcurrentMixedTasks runs different algorithms concurrently on one
// shared Network: the per-run sessions must not bleed state across tasks.
func TestConcurrentMixedTasks(t *testing.T) {
	net := runTestNet(t, WithEngine(EngineSparse))
	wantC, err := net.Run(context.Background(), Clustering())
	if err != nil {
		t.Fatal(err)
	}
	wantL, err := net.Run(context.Background(), LocalBroadcast())
	if err != nil {
		t.Fatal(err)
	}
	// Global broadcast runs the most proximity constructions per run, each
	// writing its graph into pooled sparsification scratch.
	wantG, err := net.Run(context.Background(), GlobalBroadcast(0))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			res, err := net.Run(context.Background(), Clustering())
			if err != nil {
				errCh <- err
				return
			}
			if !reflect.DeepEqual(wantC.Cluster, res.Cluster) {
				errCh <- errors.New("clustering diverged under mixed concurrency")
			}
		}()
		go func() {
			defer wg.Done()
			res, err := net.Run(context.Background(), LocalBroadcast())
			if err != nil {
				errCh <- err
				return
			}
			if !reflect.DeepEqual(wantL.Local, res.Local) {
				errCh <- errors.New("local broadcast diverged under mixed concurrency")
			}
		}()
		go func() {
			defer wg.Done()
			res, err := net.Run(context.Background(), GlobalBroadcast(0))
			if err != nil {
				errCh <- err
				return
			}
			if !reflect.DeepEqual(wantG.Broadcast, res.Broadcast) {
				errCh <- errors.New("global broadcast diverged under mixed concurrency")
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestRunMaxRounds(t *testing.T) {
	net := runTestNet(t)
	res, err := net.Run(context.Background(), Clustering(), WithMaxRounds(200))
	if !errors.Is(err, ErrRoundBudget) {
		t.Fatalf("err = %v, want ErrRoundBudget", err)
	}
	if res == nil {
		t.Fatal("budget abort must return partial stats")
	}
	if res.Stats.Rounds == 0 || res.Stats.Rounds > 200 {
		t.Errorf("partial rounds = %d, want (0, 200]", res.Stats.Rounds)
	}
	if res.Cluster != nil {
		t.Error("aborted run must not carry a task result")
	}

	// A budget above the true cost must not alter the outcome.
	full, err := net.Run(context.Background(), Clustering())
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := net.Run(context.Background(), Clustering(), WithMaxRounds(full.Stats.Rounds+1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Cluster, budgeted.Cluster) {
		t.Error("a non-binding budget changed the result")
	}
}

func TestRunContextCancellation(t *testing.T) {
	net := runTestNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	res, err := net.Run(ctx, Clustering(),
		WithObserver(ObserverFuncs{
			Round: func(round int64, _, _ int) {
				if round == 50 {
					cancel()
				}
			},
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Stats.Rounds < 50 {
		t.Fatalf("cancellation must return partial stats past round 50, got %+v", res)
	}

	// An already-cancelled context aborts before any work.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	res, err = net.Run(done, Clustering())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.Rounds != 0 {
		t.Errorf("pre-cancelled run advanced to round %d", res.Stats.Rounds)
	}
}

func TestRunObserver(t *testing.T) {
	net := runTestNet(t)
	var rounds, lastRound, deliveries int64
	var phases []string
	res, err := net.Run(context.Background(), ElectLeader(),
		WithObserver(ObserverFuncs{
			Round: func(round int64, _, del int) {
				rounds++
				lastRound = round
				deliveries += int64(del)
			},
			Phase: func(label string, _ int64) { phases = append(phases, label) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("observer saw no rounds")
	}
	// Rounds elapsed via Skip are not reported individually, so the
	// callback count is bounded by (and the last round never exceeds) the
	// total round cost.
	if rounds > res.Stats.Rounds || lastRound > res.Stats.Rounds {
		t.Errorf("observer rounds=%d last=%d vs stats %d", rounds, lastRound, res.Stats.Rounds)
	}
	if deliveries != res.Stats.Deliveries {
		t.Errorf("observer deliveries=%d, stats %d", deliveries, res.Stats.Deliveries)
	}
	if len(phases) != len(res.Marks) {
		t.Errorf("observer saw %d phases, result has %d marks", len(phases), len(res.Marks))
	}
	for i, m := range res.Marks {
		if phases[i] != m.Label {
			t.Errorf("phase %d: observer %q mark %q", i, phases[i], m.Label)
		}
	}
}

func TestNewNetworkValidatesIDs(t *testing.T) {
	pts := LinePath(4, 0.7)
	cases := []struct {
		name    string
		ids     []int
		idBound int
	}{
		{"duplicate", []int{1, 2, 2, 4}, 8},
		{"out-of-range", []int{1, 2, 3, 99}, 8},
		{"zero", []int{0, 1, 2, 3}, 8},
		{"wrong-length", []int{1, 2, 3}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewNetwork(pts, WithIDs(tc.ids, tc.idBound)); err == nil {
				t.Errorf("NewNetwork(WithIDs(%v, %d)) must fail fast", tc.ids, tc.idBound)
			}
		})
	}
	if _, err := NewNetwork(pts, WithIDs([]int{4, 3, 2, 1}, 4)); err != nil {
		t.Errorf("valid IDs rejected: %v", err)
	}
}

// TestWithIDsInt32Boundary pins the wire-format bound: protocol messages
// carry IDs as int32, so math.MaxInt32 is the largest representable ID and
// anything beyond must be rejected fail-fast with ErrBadOption — not
// silently truncated into an aliasing collision at the first transmission.
func TestWithIDsInt32Boundary(t *testing.T) {
	pts := LinePath(4, 0.7)

	// Exactly MaxInt32 is valid (construction only — running a protocol
	// with an idBound this large would be absurdly slow, and validation is
	// what this test pins).
	ids := []int{1, 2, 3, math.MaxInt32}
	if _, err := NewNetwork(pts, WithIDs(ids, math.MaxInt32)); err != nil {
		t.Errorf("WithIDs at math.MaxInt32 rejected: %v", err)
	}

	// MaxInt32+1 overflows int on 32-bit platforms, so the rejection case
	// only exists where int is wider than int32.
	if math.MaxInt > math.MaxInt32 {
		over64 := int64(math.MaxInt32) + 1
		over := int(over64) // runtime conversion: exact on 64-bit, and this branch is dead on 32-bit
		bads := [][]int{
			{1, 2, 3, over}, // ID out of int32 range
			{1, 2, 3, 4},    // IDs fine, bound itself unrepresentable
		}
		for _, bad := range bads {
			_, err := NewNetwork(pts, WithIDs(bad, over))
			if err == nil {
				t.Fatalf("WithIDs(%v, MaxInt32+1) must fail fast", bad)
			}
			if !errors.Is(err, ErrBadOption) {
				t.Errorf("want ErrBadOption-family error, got: %v", err)
			}
		}
	}
}

func TestRunNilTask(t *testing.T) {
	net := runTestNet(t)
	if _, err := net.Run(context.Background(), nil); err == nil {
		t.Error("nil task must error")
	}
}
