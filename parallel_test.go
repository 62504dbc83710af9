package dcluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dcluster/internal/sinr"
)

// tripEngine wraps a network's engine. It and all its sessions count their
// Deliver calls together. Sessions made from a session — the helper
// sessions a pass resolves its misses on — also count theirs apart, and
// while armed, cancel the run's context (or panic) at the start of one, so
// the abort happens with the pass resolving on several sessions.
type tripEngine struct {
	sinr.Engine
	root, helper bool
	t            *tripState
}

type tripState struct {
	armed       atomic.Bool
	panics      bool
	cancel      context.CancelFunc
	calls       atomic.Int64
	helperCalls atomic.Int64
}

func (e *tripEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	e.t.calls.Add(1)
	if e.helper {
		e.t.helperCalls.Add(1)
		if e.t.armed.Load() {
			if e.t.panics {
				panic("helper session failed")
			}
			e.t.cancel()
		}
	}
	return e.Engine.Deliver(txs, listeners, dst)
}

func (e *tripEngine) Session() sinr.Engine {
	return &tripEngine{Engine: e.Engine.Session(), helper: !e.root, t: e.t}
}

func (e *tripEngine) SetStopCheck(fn func() error) {
	e.Engine.(sinr.StopChecker).SetStopCheck(fn)
}

// TestAbortWhilePassResolvesInParallel cancels a run from a helper session
// while a pass resolves on several sessions, and panics one in another run:
// the runs fail with ErrCanceled and ErrInternal, and the next two Runs on
// the same Network — reusing the aborted sessions — return a Result
// identical to a clean network's. The disk is large enough that clustering
// resolves passes whose misses are spread over the helper sessions.
func TestAbortWhilePassResolvesInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pts := UniformDisk(128, 2.3, 5)
	for _, kind := range []EngineKind{EngineDense, EngineSparse} {
		for _, tc := range []struct {
			name   string
			panics bool
			want   error
		}{{"cancel", false, ErrCanceled}, {"panic", true, ErrInternal}} {
			t.Run(string(kind)+"/"+tc.name, func(t *testing.T) {
				clean, err := NewNetwork(pts, WithEngine(kind))
				if err != nil {
					t.Fatal(err)
				}
				want, err := clean.Run(context.Background(), Clustering())
				if err != nil {
					t.Fatal(err)
				}

				net, err := NewNetwork(pts, WithEngine(kind))
				if err != nil {
					t.Fatal(err)
				}
				st := &tripState{panics: tc.panics}
				net.field = &tripEngine{Engine: net.field, root: true, t: st}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				st.cancel = cancel
				st.armed.Store(true)
				if _, err := net.Run(ctx, Clustering()); !errors.Is(err, tc.want) {
					t.Fatalf("run aborted on a helper session: err %v, want %v", err, tc.want)
				}
				if st.helperCalls.Load() == 0 {
					t.Fatal("no helper session ran; the abort did not happen during a parallel resolution")
				}
				st.armed.Store(false)
				for range 2 {
					got, err := net.Run(context.Background(), Clustering())
					if err != nil {
						t.Fatalf("run after the abort: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("run after the abort differs from a clean network's:\n got %+v\nwant %+v", got.Stats, want.Stats)
					}
				}
			})
		}
	}
}

// TestDeliverCallsIndependentOfProcs pins the number of Deliver calls, on
// every session together, of clustering a 256-node disk (the determinism
// harness's): whether a pass is resolved, and which rounds it merges,
// follow from the pass alone, so the count is one number on either engine
// at any GOMAXPROCS, although at GOMAXPROCS > 1 part of it runs on helper
// sessions.
func TestDeliverCallsIndependentOfProcs(t *testing.T) {
	const want = 25456
	pts := UniformDisk(256, 3.2, 7)
	for _, kind := range []EngineKind{EngineDense, EngineSparse} {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", kind, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				net, err := NewNetwork(pts, WithEngine(kind))
				if err != nil {
					t.Fatal(err)
				}
				st := new(tripState) // never armed
				net.field = &tripEngine{Engine: net.field, root: true, t: st}
				mustRun(t, net, Clustering())
				if got := st.calls.Load(); got != want {
					t.Errorf("clustering made %d Deliver calls, want %d", got, want)
				}
				if helpers := st.helperCalls.Load(); (helpers > 0) != (procs > 1) {
					t.Errorf("%d Deliver calls on helper sessions at GOMAXPROCS=%d", helpers, procs)
				}
			})
		}
	}
}
