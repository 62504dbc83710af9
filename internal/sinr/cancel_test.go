package sinr

// Mid-round cancellation tests: every Deliver code path of both engines must
// honour the cooperative stop hook, abort via the AbortError panic payload,
// and leave the session's scratch state clean enough to deliver again.

import (
	"errors"
	"sync/atomic"
	"testing"

	"dcluster/internal/geom"
)

var errStopTest = errors.New("stop requested")

// stopAfter returns a stop hook that trips after n polls (n = 0 trips on the
// first poll). Atomic: the sparse parallel path polls from worker goroutines.
func stopAfter(n int64) func() error {
	var polls atomic.Int64
	return func() error {
		if polls.Add(1) > n {
			return errStopTest
		}
		return nil
	}
}

// deliverAborts runs one Deliver and reports whether it panicked with the
// mid-round abort payload carrying errStopTest.
func deliverAborts(t *testing.T, eng Engine, txs []int) (aborted bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err := AbortError(r)
		if err == nil {
			panic(r) // not ours — propagate
		}
		if !errors.Is(err, errStopTest) {
			t.Fatalf("abort carries %v, want errStopTest", err)
		}
		aborted = true
	}()
	eng.Deliver(txs, nil, nil)
	return false
}

// sameReceptions fails the test unless the two slices are identical.
func requireSame(t *testing.T, got, want []Reception, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d receptions, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: reception %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// checkCancelAndRecover exercises one engine configuration: an immediate
// stop aborts, and afterwards the same session (hook cleared) delivers the
// exact fault-free reception set — proving the abort restored all scratch.
func checkCancelAndRecover(t *testing.T, eng Engine, txs []int) {
	t.Helper()
	sc := eng.(StopChecker)

	// Baseline before any cancellation.
	want := eng.Deliver(txs, nil, nil)

	// A nil-returning hook must not interfere.
	sc.SetStopCheck(func() error { return nil })
	requireSame(t, eng.Deliver(txs, nil, nil), want, "nil-returning hook")

	// Immediate stop: the very first poll trips.
	sc.SetStopCheck(stopAfter(0))
	if !deliverAborts(t, eng, txs) {
		t.Fatal("Deliver completed despite a tripped stop hook")
	}

	// Mid-round stop: let a few polls through first.
	sc.SetStopCheck(stopAfter(2))
	deliverAborts(t, eng, txs) // small rounds may finish before poll 3; either way scratch must survive

	// The session must be fully reusable after the aborts.
	sc.SetStopCheck(nil)
	requireSame(t, eng.Deliver(txs, nil, nil), want, "post-abort reuse")
}

func TestCancelDensePerListener(t *testing.T) {
	// A single transmitter never takes the transposed path.
	f, err := NewField(DefaultParams(), geom.UniformDisk(600, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkCancelAndRecover(t, f, []int{7})
}

func TestCancelDenseTransposed(t *testing.T) {
	// ≥ 2 transmitters with all listeners checked runs the transposed
	// accumulation core (one stop poll per transmitter row).
	f, err := NewField(DefaultParams(), geom.UniformDisk(600, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	checkCancelAndRecover(t, f, []int{3, 99, 250, 511})
}

func TestCancelSparseSerial(t *testing.T) {
	// A small round: the direct scan's listener loop polls the hook.
	f, err := NewSparseField(DefaultParams(), geom.UniformDisk(parallelCutoff/2, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	checkCancelAndRecover(t, f, []int{1, 5, 9})
}

func TestCancelSparseParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel path needs a larger field")
	}
	f, err := NewSparseField(DefaultParams(), geom.UniformDisk(4*parallelCutoff, 6, 4))
	if err != nil {
		t.Fatal(err)
	}
	f.workers = 4 // force the stripe fan-out even on a single-proc runner
	// More than smallTxCutoff transmitters take the grid sweep.
	txs := make([]int, 0, 2*smallTxCutoff)
	for v := 0; v < 4*parallelCutoff && len(txs) < 2*smallTxCutoff; v += 13 {
		txs = append(txs, v)
	}
	checkCancelAndRecover(t, f, txs)
}

func TestCancelSparseAccum(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep needs a larger field")
	}
	f, err := NewSparseField(DefaultParams(), geom.UniformDisk(4*parallelCutoff, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	f.workers = 1 // the grid sweep on the caller's goroutine, cell by cell
	// More than smallTxCutoff transmitters take the grid sweep.
	txs := make([]int, 0, 2*smallTxCutoff)
	for v := 0; v < 4*parallelCutoff && len(txs) < 2*smallTxCutoff; v += 17 {
		txs = append(txs, v)
	}
	checkCancelAndRecover(t, f, txs)
}

func TestCancelSessionIsolation(t *testing.T) {
	// A stop hook installed on one session must not leak into a sibling or
	// into a session created afterwards.
	f, err := NewSparseField(DefaultParams(), geom.UniformDisk(100, 3, 6))
	if err != nil {
		t.Fatal(err)
	}
	txs := []int{2, 40}
	want := f.Deliver(txs, nil, nil)

	s1 := f.Session()
	s1.(StopChecker).SetStopCheck(stopAfter(0))
	if !deliverAborts(t, s1, txs) {
		t.Fatal("session ignored its stop hook")
	}
	s2 := f.Session()
	requireSame(t, s2.Deliver(txs, nil, nil), want, "fresh session after sibling abort")

	// Re-pooling: sessions handed out later must come with a clear hook.
	s3 := f.Session()
	requireSame(t, s3.Deliver(txs, nil, nil), want, "third session")
}

func TestAbortErrorNonAbort(t *testing.T) {
	if AbortError("some other panic") != nil {
		t.Error("AbortError must ignore foreign panics")
	}
	if AbortError(nil) != nil {
		t.Error("AbortError(nil) must be nil")
	}
}
