package sim

import (
	"reflect"
	"strings"
	"testing"

	"dcluster/internal/geom"
	"dcluster/internal/sinr"
)

func testEnv(t *testing.T, coords ...float64) *Env {
	t.Helper()
	pos := make([]geom.Point, 0, len(coords)/2)
	for i := 0; i+1 < len(coords); i += 2 {
		pos = append(pos, geom.Pt(coords[i], coords[i+1]))
	}
	f, err := sinr.NewField(sinr.DefaultParams(), pos)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnv(f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnvDefaults(t *testing.T) {
	e := testEnv(t, 0, 0, 1, 0, 2, 0)
	if e.N != 3 {
		t.Errorf("N = %d, want 3", e.N)
	}
	for i := 0; i < 3; i++ {
		if e.IDs[i] != i+1 {
			t.Errorf("IDs[%d] = %d", i, e.IDs[i])
		}
		if e.NodeOf(i+1) != i {
			t.Errorf("NodeOf(%d) = %d", i+1, e.NodeOf(i+1))
		}
	}
	if e.NodeOf(99) != -1 {
		t.Error("NodeOf(unknown) must be -1")
	}
}

func TestNewEnvValidation(t *testing.T) {
	f, _ := sinr.NewField(sinr.DefaultParams(), []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)})
	if _, err := NewEnv(f, []int{1}, 4); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := NewEnv(f, []int{1, 1}, 4); err == nil {
		t.Error("duplicate ids must error")
	}
	if _, err := NewEnv(f, []int{0, 1}, 4); err == nil {
		t.Error("id 0 must error")
	}
	if _, err := NewEnv(f, []int{1, 9}, 4); err == nil {
		t.Error("id above bound must error")
	}
	if _, err := NewEnv(f, []int{2, 4}, 4); err != nil {
		t.Errorf("valid ids rejected: %v", err)
	}
}

func TestStepCountsRounds(t *testing.T) {
	e := testEnv(t, 0, 0, 0.5, 0)
	if e.Rounds() != 0 {
		t.Fatal("fresh env must be at round 0")
	}
	e.Step(nil, nil, nil) // silent round still ticks
	if e.Rounds() != 1 {
		t.Errorf("silent round not counted: %d", e.Rounds())
	}
	ds := e.Step([]int{0}, func(int) Msg { return Msg{Kind: KindHello, From: 1} }, nil)
	if e.Rounds() != 2 {
		t.Errorf("rounds = %d", e.Rounds())
	}
	if len(ds) != 1 || ds[0].Receiver != 1 || ds[0].Sender != 0 || ds[0].Msg.From != 1 {
		t.Errorf("delivery = %+v", ds)
	}
	st := e.Stats()
	if st.Rounds != 2 || st.Transmissions != 1 || st.Deliveries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMessageBuiltOncePerSender checks that a round builds each sender's
// message once, only for senders with a reception, and that the deliveries
// equal those built with one msgOf call per reception — through Step and
// through StepPass's capture and recall alike, across rounds whose messages
// differ.
func TestMessageBuiltOncePerSender(t *testing.T) {
	// Two groups far apart: node 0 reaches 1–3, node 4 reaches 5–6; node 7
	// reaches no one.
	e := testEnv(t, 0, 0, 0.3, 0, -0.3, 0, 0, 0.3, 10, 0, 10.3, 0, 9.7, 0, 50, 0)
	txs := []int{0, 4, 7}
	msg := func(round int64, v int) Msg {
		return Msg{Kind: KindPayload, From: int32(e.IDs[v]), A: int32(round), List: []int32{int32(v), int32(round)}}
	}
	lid := e.InternListeners(nil)
	for round := 1; round <= 4; round++ {
		calls := map[int]int{}
		msgOf := func(v int) Msg {
			calls[v]++
			return msg(e.Rounds(), v)
		}
		var got []Delivery
		if round%2 == 1 {
			got = e.Step(txs, msgOf, nil)
		} else {
			got = StepOne(e, txs, msgOf, nil, lid, lid)
		}
		var want []Delivery
		for _, r := range e.F.Deliver(txs, nil, nil) {
			want = append(want, Delivery{Receiver: r.Receiver, Sender: r.Sender, Msg: msg(e.Rounds(), r.Sender)})
		}
		if len(got) != 5 || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: deliveries %+v, want %+v", round, got, want)
		}
		if len(calls) != 2 || calls[0] != 1 || calls[4] != 1 {
			t.Fatalf("round %d: msgOf calls %v, want one each for nodes 0 and 4", round, calls)
		}
	}
}

func TestStepOversizedMessagePanics(t *testing.T) {
	e := testEnv(t, 0, 0, 0.5, 0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("oversized message must panic")
		} else if !strings.Contains(r.(error).Error(), "MaxList") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	big := Msg{Kind: KindHeard, List: make([]int32, MaxList+1)}
	e.Step([]int{0}, func(int) Msg { return big }, nil)
}

func TestSkip(t *testing.T) {
	e := testEnv(t, 0, 0)
	e.Skip(10)
	e.Skip(-5) // ignored
	if e.Rounds() != 10 {
		t.Errorf("rounds = %d, want 10", e.Rounds())
	}
}

func TestMarks(t *testing.T) {
	e := testEnv(t, 0, 0, 0.5, 0)
	e.MarkPhase("start")
	e.Step(nil, nil, nil)
	e.MarkPhase("after-one")
	ms := e.Marks()
	if len(ms) != 2 || ms[0] != (Mark{Label: "start", Round: 0}) || ms[1] != (Mark{Label: "after-one", Round: 1}) {
		t.Errorf("marks = %+v", ms)
	}
}

func TestMsgValidate(t *testing.T) {
	if err := (Msg{List: make([]int32, MaxList)}).Validate(); err != nil {
		t.Errorf("MaxList-length list must validate: %v", err)
	}
	if err := (Msg{List: make([]int32, MaxList+1)}).Validate(); err == nil {
		t.Error("over-length list must fail")
	}
}

func TestStepListenersSubset(t *testing.T) {
	e := testEnv(t, 0, 0, 0.5, 0, 0, 0.5)
	ds := e.Step([]int{0}, func(int) Msg { return Msg{Kind: KindHello} }, []int{2})
	if len(ds) != 1 || ds[0].Receiver != 2 {
		t.Errorf("listener restriction failed: %+v", ds)
	}
}

func TestDeliveriesInvalidatedByNextStep(t *testing.T) {
	// Documented contract: the returned slice is backed by a per-session
	// pooled buffer, so the next Step reuses it. Callers must consume each
	// round's deliveries before advancing the clock; a value copied out
	// stays intact.
	e := testEnv(t, 0, 0, 0.5, 0)
	first := e.Step([]int{0}, func(int) Msg { return Msg{Kind: KindHello, A: 1} }, nil)
	copied := first[0]
	_ = e.Step([]int{1}, func(int) Msg { return Msg{Kind: KindHello, A: 2} }, nil)
	if copied.Msg.A != 1 {
		t.Error("copied-out delivery must remain intact")
	}
	if first[0].Msg.A != 2 {
		t.Error("returned slice must be backed by the pooled buffer (reused by the next Step)")
	}
}

func TestNextActive(t *testing.T) {
	e := testEnv(t, 0, 0, 0.5, 0)
	e.NextActive(11) // rounds 1..10 silent; next Step is round 11
	if e.Rounds() != 10 {
		t.Fatalf("rounds = %d, want 10", e.Rounds())
	}
	e.NextActive(5) // past target: no-op
	e.NextActive(11)
	if e.Rounds() != 10 {
		t.Fatalf("rounds = %d after no-op targets, want 10", e.Rounds())
	}
	ds := e.Step([]int{0}, func(int) Msg { return Msg{Kind: KindHello} }, nil)
	if e.Rounds() != 11 || len(ds) != 1 {
		t.Fatalf("rounds = %d deliveries = %d after fast-forwarded Step", e.Rounds(), len(ds))
	}
}

func TestNextActiveObserverAndParity(t *testing.T) {
	type boundary struct {
		round int64
		tx    int
	}
	run := func(disable bool) (rounds int64, seen []boundary) {
		e := testEnv(t, 0, 0, 0.5, 0)
		e.SetControl(Control{
			DisableFastForward: disable,
			Observer: obsFuncs{onRound: func(r int64, tx, del int) {
				seen = append(seen, boundary{r, tx})
			}},
		})
		e.NextActive(4)
		e.Step([]int{0}, func(int) Msg { return Msg{Kind: KindHello} }, nil)
		e.NextActive(9)
		return e.Rounds(), seen
	}
	fastRounds, fast := run(false)
	naiveRounds, naive := run(true)
	if fastRounds != 8 || naiveRounds != 8 {
		t.Fatalf("rounds: fast %d naive %d, want 8", fastRounds, naiveRounds)
	}
	// Fast-forward: one synthesized boundary per batch (round 3, then the
	// Step at 4, then round 8).
	wantFast := []boundary{{3, 0}, {4, 1}, {8, 0}}
	if len(fast) != len(wantFast) {
		t.Fatalf("fast boundaries = %+v", fast)
	}
	for i, w := range wantFast {
		if fast[i] != w {
			t.Fatalf("fast boundaries = %+v, want %+v", fast, wantFast)
		}
	}
	// Naive replay: every silent round reported individually.
	wantNaive := []boundary{{1, 0}, {2, 0}, {3, 0}, {4, 1}, {5, 0}, {6, 0}, {7, 0}, {8, 0}}
	if len(naive) != len(wantNaive) {
		t.Fatalf("naive boundaries = %+v", naive)
	}
	for i, w := range wantNaive {
		if naive[i] != w {
			t.Fatalf("naive boundaries = %+v, want %+v", naive, wantNaive)
		}
	}
}

// obsFuncs adapts plain functions to Observer for the sim tests.
type obsFuncs struct {
	onRound func(round int64, transmitters, deliveries int)
	onPhase func(label string, round int64)
}

func (o obsFuncs) OnRound(round int64, transmitters, deliveries int) {
	if o.onRound != nil {
		o.onRound(round, transmitters, deliveries)
	}
}

func (o obsFuncs) OnPhase(label string, round int64) {
	if o.onPhase != nil {
		o.onPhase(label, round)
	}
}

func TestNextActiveBudget(t *testing.T) {
	for _, disable := range []bool{false, true} {
		e := testEnv(t, 0, 0, 0.5, 0)
		e.SetControl(Control{MaxRounds: 5, DisableFastForward: disable})
		err := catchStop(func() { e.NextActive(100) })
		if err != ErrRoundBudget {
			t.Fatalf("disable=%v: err = %v, want ErrRoundBudget", disable, err)
		}
		if e.Rounds() != 5 {
			t.Fatalf("disable=%v: rounds = %d, want clock stopped at budget 5", disable, e.Rounds())
		}
	}
}
