package sim

// Execution-environment fault tests: node-outage filtering, restart
// delivery (stepped and collapsed), the stall watchdog's exact-round
// semantics and its equivalence across fast-forward modes, the
// budget-vs-stall tie-break and ErrCanceled wrapping. Faulted rounds
// through the reception memo are tested in memo_fault_test.go.

import (
	"context"
	"errors"
	"testing"
)

// stubFaults is a hand-rolled NodeFaults schedule for the tests.
type stubFaults struct {
	down     func(node int, r int64) bool
	any      func(r int64) bool
	restarts []Restart
}

func (s stubFaults) Down(node int, r int64) bool { return s.down(node, r) }
func (s stubFaults) AnyDown(r int64) bool        { return s.any(r) }
func (s stubFaults) Restarts() []Restart         { return s.restarts }

func helloOf(int) Msg { return Msg{Kind: KindHello} }

func TestNodeFaultDownTransmitter(t *testing.T) {
	e := controlEnv(t)
	e.SetControl(Control{NodeFaults: stubFaults{
		down: func(node int, r int64) bool { return node == 0 },
		any:  func(r int64) bool { return true },
	}})
	out := e.Step([]int{0, 1}, helloOf, nil)
	if e.Stats().Transmissions != 1 {
		t.Errorf("transmissions = %d, want 1 (down node filtered)", e.Stats().Transmissions)
	}
	for _, d := range out {
		if d.Sender == 0 {
			t.Errorf("down node 0 delivered to %d", d.Receiver)
		}
	}
}

func TestNodeFaultDeafReceiver(t *testing.T) {
	base := controlEnv(t)
	want := base.Step([]int{0}, helloOf, nil)
	if len(want) == 0 {
		t.Fatal("fault-free baseline delivers nothing; topology too sparse for the test")
	}

	e := controlEnv(t)
	e.SetControl(Control{NodeFaults: stubFaults{
		down: func(node int, r int64) bool { return node == 1 },
		any:  func(r int64) bool { return true },
	}})
	got := e.Step([]int{0}, helloOf, nil)
	if len(got) != len(want)-1 {
		t.Fatalf("deaf receiver: %d deliveries, want %d", len(got), len(want)-1)
	}
	for _, d := range got {
		if d.Receiver == 1 {
			t.Error("down node 1 still received")
		}
	}
	if e.Stats().Deliveries != int64(len(got)) {
		t.Errorf("delivery stats %d disagree with output %d", e.Stats().Deliveries, len(got))
	}
}

func TestRestartsStepped(t *testing.T) {
	e := controlEnv(t)
	e.SetControl(Control{NodeFaults: stubFaults{
		down:     func(int, int64) bool { return false },
		any:      func(int64) bool { return false },
		restarts: []Restart{{Node: 2, Round: 3}, {Node: 1, Round: 5}},
	}})
	var fired []struct {
		node  int
		round int64
	}
	e.OnRestart(func(node int) {
		fired = append(fired, struct {
			node  int
			round int64
		}{node, e.Rounds()})
	})
	for i := 0; i < 6; i++ {
		e.Step(nil, helloOf, nil)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d restarts, want 2", len(fired))
	}
	if fired[0].node != 2 || fired[0].round != 3 {
		t.Errorf("first restart = %+v, want node 2 @ round 3", fired[0])
	}
	if fired[1].node != 1 || fired[1].round != 5 {
		t.Errorf("second restart = %+v, want node 1 @ round 5", fired[1])
	}
}

func TestRestartsCollapsedStretch(t *testing.T) {
	e := controlEnv(t)
	e.SetControl(Control{NodeFaults: stubFaults{
		down:     func(int, int64) bool { return false },
		any:      func(int64) bool { return false },
		restarts: []Restart{{Node: 3, Round: 10}},
	}})
	var fired []int64
	e.OnRestart(func(int) { fired = append(fired, e.Rounds()) })
	e.Skip(20) // the restart sits inside the collapsed stretch
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("collapsed restart fired at %v, want once at the stretch end (20)", fired)
	}
}

func TestStallWatchdogFires(t *testing.T) {
	e := controlEnv(t)
	e.SetControl(Control{StallWindow: 3})
	err := catchStop(func() {
		for i := 0; i < 10; i++ {
			e.Step(nil, helloOf, nil)
		}
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if e.Rounds() != 3 {
		t.Errorf("stalled at round %d, want exactly the window (3)", e.Rounds())
	}
}

func TestStallWatchdogResets(t *testing.T) {
	e := controlEnv(t)
	e.SetControl(Control{StallWindow: 3})
	err := catchStop(func() {
		// Deliveries reset the window...
		for i := 0; i < 4; i++ {
			e.Step(nil, helloOf, nil)
			e.Step(nil, helloOf, nil)
			if len(e.Step([]int{0}, helloOf, nil)) == 0 {
				t.Fatal("live round delivered nothing; topology too sparse")
			}
		}
		// ...and so do phase marks.
		e.Step(nil, helloOf, nil)
		e.Step(nil, helloOf, nil)
		e.MarkPhase("checkpoint")
		e.Step(nil, helloOf, nil)
		e.Step(nil, helloOf, nil)
	})
	if err != nil {
		t.Fatalf("watchdog fired despite progress: %v", err)
	}
	err = catchStop(func() { e.Step(nil, helloOf, nil) })
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("third silent round after the mark must stall, got %v", err)
	}
	if e.Rounds() != 17 {
		t.Errorf("stalled at round %d, want 17", e.Rounds())
	}
}

// TestStallWatchdogModeEquivalence pins the watchdog's core contract: the
// abort round is identical whether a silent stretch is stepped one round at
// a time, collapsed by Skip, or replayed by NextActive with fast-forward
// disabled.
func TestStallWatchdogModeEquivalence(t *testing.T) {
	const window = 5
	run := func(stretch func(e *Env)) (int64, error) {
		e := controlEnv(t)
		e.SetControl(Control{StallWindow: window})
		e.Step([]int{0}, helloOf, nil) // one live round first
		err := catchStop(func() { stretch(e) })
		return e.Rounds(), err
	}
	stepped, errStepped := run(func(e *Env) {
		for i := 0; i < 100; i++ {
			e.Step(nil, helloOf, nil)
		}
	})
	skipped, errSkipped := run(func(e *Env) { e.Skip(100) })
	replayed, errReplayed := run(func(e *Env) {
		e.ctl.DisableFastForward = true
		e.NextActive(e.Rounds() + 101)
	})
	for _, c := range []struct {
		name  string
		round int64
		err   error
	}{{"stepped", stepped, errStepped}, {"skipped", skipped, errSkipped}, {"replayed", replayed, errReplayed}} {
		if !errors.Is(c.err, ErrStalled) {
			t.Errorf("%s: err = %v, want ErrStalled", c.name, c.err)
		}
		if c.round != stepped {
			t.Errorf("%s stalled at round %d, stepped at %d", c.name, c.round, stepped)
		}
	}
	if stepped != 1+window {
		t.Errorf("stall round = %d, want %d", stepped, 1+window)
	}
}

func TestSkipBudgetBeforeStall(t *testing.T) {
	e := controlEnv(t)
	e.SetControl(Control{MaxRounds: 4, StallWindow: 10})
	e.Step([]int{0}, helloOf, nil)
	err := catchStop(func() { e.Skip(100) })
	if !errors.Is(err, ErrRoundBudget) {
		t.Fatalf("err = %v, want ErrRoundBudget (budget round 4 precedes stall round 11)", err)
	}
	if e.Rounds() != 4 {
		t.Errorf("rounds = %d, want clamp at the budget", e.Rounds())
	}
}

func TestSkipStallBeforeBudget(t *testing.T) {
	e := controlEnv(t)
	e.SetControl(Control{MaxRounds: 50, StallWindow: 10})
	e.Step([]int{0}, helloOf, nil)
	err := catchStop(func() { e.Skip(100) })
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled (stall round 11 precedes budget round 50)", err)
	}
	if e.Rounds() != 11 {
		t.Errorf("rounds = %d, want 11", e.Rounds())
	}
}

func TestCanceledWrapsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := controlEnv(t)
	e.SetControl(Control{Ctx: ctx})
	err := catchStop(func() { e.Step([]int{0}, helloOf, nil) })
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("Step err = %v, want both ErrCanceled and context.Canceled", err)
	}
	err = catchStop(func() { e.Skip(10) })
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("Skip err = %v, want both ErrCanceled and context.Canceled", err)
	}
}
