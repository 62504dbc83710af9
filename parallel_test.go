package dcluster

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dcluster/internal/sinr"
)

// tripEngine wraps a network's engine. Sessions made from a session — the
// helper sessions a pass resolves its misses on — count their Deliver
// calls, and while armed, cancel the run's context (or panic) at the start
// of one, so the abort happens with the pass resolving on several sessions.
type tripEngine struct {
	sinr.Engine
	root, helper bool
	t            *tripState
}

type tripState struct {
	armed       atomic.Bool
	panics      bool
	cancel      context.CancelFunc
	helperCalls atomic.Int64
}

func (e *tripEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
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
// the runs fail with ErrCanceled and ErrInternal, and the next Run on the
// same Network — reusing the aborted sessions — returns a Result identical
// to a clean network's.
func TestAbortWhilePassResolvesInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pts := UniformDisk(96, 2, 5)
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
				if _, err := net.Run(ctx, Clustering(), WithForceParallel()); !errors.Is(err, tc.want) {
					t.Fatalf("run aborted on a helper session: err %v, want %v", err, tc.want)
				}
				if st.helperCalls.Load() == 0 {
					t.Fatal("no helper session ran; the abort did not happen during a parallel resolution")
				}
				st.armed.Store(false)
				for _, opts := range [][]RunOption{{WithForceParallel()}, nil} {
					got, err := net.Run(context.Background(), Clustering(), opts...)
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
