package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"dcluster/internal/sinr"
)

// ErrRoundBudget is the abort cause when an execution exhausts the round
// budget set through Control.MaxRounds.
var ErrRoundBudget = errors.New("sim: round budget exhausted")

// Observer receives execution callbacks from a running environment, on the
// goroutine driving the execution. OnRound fires after every Step (including
// silent ones); OnPhase fires at every MarkPhase. Implementations must be
// fast — they sit on the hot path of the simulator.
//
// Silent stretches collapsed in bulk are reported as one synthesized round
// boundary each: when the schedule layer declares "nothing happens until
// round r" (NextActive) or skips provably empty rounds (Skip is not
// reported), the observer sees a single OnRound(r', 0, 0) carrying the last
// round of the batch instead of one callback per silent round. Round
// numbers, statistics and phase marks are unaffected — only the callback
// granularity changes.
type Observer interface {
	// OnRound reports one completed synchronous round: the round number,
	// the number of transmitters, and the number of successful deliveries.
	OnRound(round int64, transmitters, deliveries int)
	// OnPhase reports a labelled phase mark at the given round.
	OnPhase(label string, round int64)
}

// Control attaches run-scoped execution policy to an environment: a context
// checked at round boundaries, a hard round budget, and an observer. The
// zero value imposes nothing.
type Control struct {
	// Ctx, when non-nil, is checked at every round boundary; once it is
	// cancelled the execution aborts with the context's error.
	Ctx context.Context
	// MaxRounds, when positive, is a hard budget: the execution aborts with
	// ErrRoundBudget before exceeding it.
	MaxRounds int64
	// Observer, when non-nil, receives per-round and per-phase callbacks.
	Observer Observer
	// DisableFastForward makes NextActive replay declared-silent stretches
	// one round at a time instead of collapsing them. Execution results,
	// statistics and phase marks are byte-identical either way (that is the
	// NextActive contract, and what the equivalence tests assert); the flag
	// exists for those tests and for debugging observers at single-round
	// granularity.
	DisableFastForward bool
	// NodeFaults, when non-nil, is the deterministic node-outage schedule:
	// down nodes are stripped from every transmitter set and reception list.
	NodeFaults NodeFaults
	// StallWindow, when positive, arms the stall watchdog: the execution
	// aborts with ErrStalled after StallWindow consecutive rounds with no
	// delivery and no phase mark. A delivery is a reception at one of the
	// round's listeners, so an addressed round that reaches none of its
	// addressees counts as idle. The window is measured on the round
	// clock — fast-forwarded silent stretches count (and abort at exactly
	// the round single-stepping would) — so it must be sized well above the
	// protocol's longest natural progress-free stretch.
	StallWindow int64
	// ImpureReception is ignored. Faulted executions share the reception
	// memo: it holds the fault-free outcome of each (transmitters,
	// listeners) round, and the fault layer applies per round on top of it
	// (see StepPass).
	//
	// Deprecated: the field has no effect; leave it unset.
	ImpureReception bool
}

// stopExecution is the panic payload that unwinds an aborted execution out
// of arbitrarily deep algorithm call stacks; the Run layer recovers it via
// StopError and turns it back into an error.
type stopExecution struct{ err error }

// StopError returns the abort error carried by a recovered Step/Skip panic,
// or nil if the panic is not an execution abort.
func StopError(r any) error {
	if s, ok := r.(stopExecution); ok {
		return s.err
	}
	return nil
}

// Env is the shared execution environment of one simulation: the physical
// field, the protocol ID assignment, the global round counter and statistics.
// Algorithms are handed an *Env and advance time only via Step.
//
// Nodes are indexed 0..n−1 by the simulator; each has a unique protocol ID
// in [1..N]. Algorithms must key their decisions on IDs (and received
// messages), not on indices — indices exist only for the simulator's
// bookkeeping.
type Env struct {
	F   sinr.Engine
	IDs []int // IDs[node] = protocol ID ∈ [1..N]
	N   int   // ID-space bound known to all nodes (N = n^{O(1)})

	idToNode map[int]int
	rounds   int64
	stats    Stats
	marks    []Mark
	txCount  []int64
	ctl      Control

	// phys computes the fault-free receptions: F, or the engine under F
	// when F is a fault decorator, which is then also filter.
	phys   sinr.Engine
	filter sinr.RoundFilter

	recBuf  []sinr.Reception // fault-free receptions of the current round
	recFilt []sinr.Reception // the current round's receptions after faults
	delBuf  []Delivery
	passBuf []Delivery
	stepTxs []int // a pass round's surviving transmitters (see passTxs)
	memo    envMemo

	// Pass resolution (see StepPass): GOMAXPROCS at creation, the kit of
	// helper sessions and buffers, and the stop hook installed on every
	// session.
	procs  int
	kit    *PassKit
	stopFn func() error

	// Membership of the addressed listener set last served from an
	// enclosing set's memo entry: inSet[v] == inSetID iff v is a member
	// (see markListeners).
	inSet   []uint32
	inSetID uint32

	// Per-round message table: msgs[v] holds sender v's message of round
	// msgRound[v] (see deliver).
	msgs     []Msg
	msgRound []int64

	// derived caches execution-scoped derived structures (selector families,
	// schedule-list caches, SNS instances) keyed by the parameters that
	// determine them; see CacheGet.
	derived map[any]any

	// Fault-layer state (see fault.go): the restart schedule cursor, the
	// restart callback, the stall watchdog's idle-round counter and the
	// transmitter-filter scratch.
	restarts   []Restart
	restartIdx int
	onRestart  func(node int)
	idle       int64
	txFilt     []int
}

// Stats aggregates execution counters.
type Stats struct {
	Rounds        int64 // synchronous rounds elapsed
	Transmissions int64 // node-rounds spent transmitting
	Deliveries    int64 // successful receptions at the rounds' listeners
}

// Mark is a labelled point on the round timeline, used by experiments to
// attribute rounds to algorithm phases.
type Mark struct {
	Label string
	Round int64
}

// ValidateIDs checks a protocol ID assignment for n nodes: exactly one ID
// per node, each unique and within [1..idBound]. It is the single validator
// behind both NewEnv and the public NewNetwork fail-fast check, and returns
// the ID→node index it builds while validating so NewEnv pays one pass.
//
// idBound (and therefore every ID) must fit in an int32: protocol messages
// carry IDs, cluster IDs and binary-search bounds over [1..idBound] as
// int32 (Msg.From/Cluster/A/B/C/List), so a larger ID would silently
// truncate in transit and could alias two nodes. Rejected here, fail-fast.
func ValidateIDs(ids []int, n, idBound int) (map[int]int, error) {
	if len(ids) != n {
		return nil, fmt.Errorf("sim: %d ids for %d nodes", len(ids), n)
	}
	if int64(idBound) > math.MaxInt32 {
		return nil, fmt.Errorf("sim: id bound %d exceeds int32 range (protocol messages carry IDs as int32)", idBound)
	}
	idToNode := make(map[int]int, len(ids))
	for node, id := range ids {
		if id < 1 || id > idBound {
			return nil, fmt.Errorf("sim: id %d out of range [1..%d]", id, idBound)
		}
		if prev, dup := idToNode[id]; dup {
			return nil, fmt.Errorf("sim: duplicate id %d (nodes %d and %d)", id, prev, node)
		}
		idToNode[id] = node
	}
	return idToNode, nil
}

// NewEnv creates an environment. ids must be unique and within [1..idBound];
// if ids is nil, node i gets ID i+1 and idBound defaults to n.
func NewEnv(f sinr.Engine, ids []int, idBound int) (*Env, error) {
	n := f.N()
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i + 1
		}
		if idBound < n {
			idBound = n
		}
	}
	idToNode, err := ValidateIDs(ids, n, idBound)
	if err != nil {
		return nil, err
	}
	e := &Env{F: f, phys: f, IDs: append([]int(nil), ids...), N: idBound, idToNode: idToNode, memo: envMemo{budget: min(memoBudget, memoPerNode*n)}, procs: runtime.GOMAXPROCS(0)}
	if rf, ok := f.(sinr.RoundFilter); ok {
		e.phys, e.filter = rf.Unwrap(), rf
	}
	return e, nil
}

// MustEnv is NewEnv that panics on error (test/example convenience).
func MustEnv(f sinr.Engine, ids []int, idBound int) *Env {
	e, err := NewEnv(f, ids, idBound)
	if err != nil {
		panic(err)
	}
	return e
}

// NodeOf returns the node index with the given protocol ID, or -1.
func (e *Env) NodeOf(id int) int {
	if node, ok := e.idToNode[id]; ok {
		return node
	}
	return -1
}

// Rounds returns the number of rounds elapsed.
func (e *Env) Rounds() int64 { return e.rounds }

// Stats returns a snapshot of the execution counters.
func (e *Env) Stats() Stats {
	s := e.stats
	s.Rounds = e.rounds
	return s
}

// Marks returns the recorded phase marks.
func (e *Env) Marks() []Mark { return e.marks }

// SetControl attaches run-scoped execution policy (context, round budget,
// observer, fault schedule, stall watchdog). Call before the execution
// starts; the zero Control clears it.
func (e *Env) SetControl(c Control) {
	e.ctl = c
	e.restarts, e.restartIdx = nil, 0
	if c.NodeFaults != nil {
		e.restarts = c.NodeFaults.Restarts()
	}
	e.idle = 0
	// Install (or clear — sessions are pooled across runs) the engines'
	// cooperative mid-round cancellation hook, on the helper sessions too.
	e.stopFn = nil
	if ctx := c.Ctx; ctx != nil {
		e.stopFn = func() error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w: %w", ErrCanceled, err)
			}
			return nil
		}
	}
	if sc, ok := e.F.(sinr.StopChecker); ok {
		sc.SetStopCheck(e.stopFn)
	}
	e.setHelperStops()
}

// MarkPhase records a labelled timeline point at the current round and
// notifies the observer, if any.
func (e *Env) MarkPhase(label string) {
	e.marks = append(e.marks, Mark{Label: label, Round: e.rounds})
	e.noteProgress()
	if e.ctl.Observer != nil {
		e.ctl.Observer.OnPhase(label, e.rounds)
	}
}

// checkStop aborts the execution (by panicking with a stopExecution that
// the Run layer recovers) when the round budget is exhausted or the context
// is cancelled. Called at every round boundary, before the round's work, so
// partial statistics never exceed the budget.
func (e *Env) checkStop() {
	if e.ctl.MaxRounds > 0 && e.rounds >= e.ctl.MaxRounds {
		panic(stopExecution{ErrRoundBudget})
	}
	if e.ctl.Ctx != nil {
		if err := e.ctl.Ctx.Err(); err != nil {
			panic(stopExecution{fmt.Errorf("%w: %w", ErrCanceled, err)})
		}
	}
}

// Step executes one synchronous round: every node in txs transmits the
// message msgOf(node); every other node listens. listeners restricts which
// nodes' receptions are computed (nil = all non-transmitters); restricting
// listeners never changes protocol behaviour, because omitted nodes would
// only have discarded the message. It does change the accounting: only
// receptions at listeners are delivered, so Stats.Deliveries, the observer's
// delivery count and the stall watchdog see those alone (an addressed
// message counts only at its addressee).
// msgOf is called once per round for each transmitter with at least one
// reception, and never for the others, so it must be a pure function of
// the node for the duration of the round; every delivery from that sender
// carries the same Msg.
//
// The round counter advances even when txs is empty (silent rounds cost
// time in the model too). The returned slice — including the Delivery values
// in it — is valid only until the next Step: the environment reuses one
// pooled delivery buffer per session, so callers must consume (or copy out)
// each round's deliveries before advancing the clock. Every caller in this
// repository does; the steady-state round loop performs zero allocations.
func (e *Env) Step(txs []int, msgOf func(node int) Msg, listeners []int) []Delivery {
	txs = e.beginRound(txs)
	if len(txs) == 0 {
		return nil
	}
	e.recBuf = e.phys.Deliver(txs, listeners, e.recBuf[:0])
	return e.deliver(txs, e.recBuf, msgOf)
}

// beginRound opens the next round and strips its down transmitters. It
// returns the surviving transmitters, already accounted, or nil after
// closing a round left silent.
func (e *Env) beginRound(txs []int) []int {
	e.openRound()
	txs = e.filterDown(txs)
	if !e.accountTx(txs) {
		return nil
	}
	return txs
}

// openRound opens the next round: the stop check, the clock and scheduled
// restarts.
func (e *Env) openRound() {
	e.checkStop()
	e.rounds++
	e.fireRestarts()
}

// accountTx accounts the opened round's surviving transmitters. It reports
// false after closing the round when none survive.
func (e *Env) accountTx(txs []int) bool {
	e.stats.Transmissions += int64(len(txs))
	if len(txs) == 0 {
		if e.ctl.Observer != nil {
			e.ctl.Observer.OnRound(e.rounds, 0, 0)
		}
		e.noteSilentRound()
		return false
	}
	e.recordTx(txs)
	return true
}

// deliver applies the round's faults to its fault-free receptions recs
// (computed live or recalled from the memo), turns the survivors into
// deliveries in the pooled result buffer, and accounts the round: delivery
// statistics, the observer callback and the stall watchdog. Each sender
// with a surviving reception has its message built straight into the
// round's message table and validated once per round, at its first
// reception, and every reception copies it from there.
//
// The buffer is sized to the surviving receptions up front and each
// delivery's fields are stored in place: appending a composite literal
// built it in a stack temporary first and then copied the 64 bytes over.
func (e *Env) deliver(txs []int, recs []sinr.Reception, msgOf func(node int) Msg) []Delivery {
	recs = e.applyFaults(txs, recs)
	if e.msgs == nil && len(recs) > 0 {
		e.msgs = make([]Msg, len(e.IDs))
		e.msgRound = make([]int64, len(e.IDs))
	}
	out := slices.Grow(e.delBuf[:0], len(recs))[:len(recs)]
	for i, r := range recs {
		v := r.Sender
		if e.msgRound[v] != e.rounds {
			e.msgs[v] = msgOf(v)
			if err := e.msgs[v].Validate(); err != nil {
				panic(err) // programming error: oversized message
			}
			e.msgRound[v] = e.rounds
		}
		d := &out[i]
		d.Receiver, d.Sender, d.Msg = r.Receiver, v, e.msgs[v]
	}
	e.delBuf = out
	e.stats.Deliveries += int64(len(out))
	if e.ctl.Observer != nil {
		e.ctl.Observer.OnRound(e.rounds, len(txs), len(out))
	}
	e.noteLiveRound(len(out))
	return out
}

// CacheGet returns the execution-scoped derived structure stored under key.
// Derived structures — selector families, schedule-list caches, SNS
// instances — are pure functions of their parameters and the environment, so
// layers that would otherwise rebuild them per call (one radius reduction or
// broadcast phase at a time) key them here by parameter tuple and rebuild
// only on first use. The cache follows the environment's lifetime and
// single-goroutine execution discipline.
func (e *Env) CacheGet(key any) (any, bool) {
	v, ok := e.derived[key]
	return v, ok
}

// CachePut stores an execution-scoped derived structure under key.
func (e *Env) CachePut(key any, v any) {
	if e.derived == nil {
		e.derived = map[any]any{}
	}
	e.derived[key] = v
}

// Skip advances the clock by k silent rounds (used when a protocol's
// schedule has provably empty rounds that still consume time). The skipped
// rounds count against the round budget; on exhaustion the clock stops at
// the budget and the execution aborts.
func (e *Env) Skip(k int64) {
	if k <= 0 {
		return
	}
	if e.ctl.Ctx != nil {
		if err := e.ctl.Ctx.Err(); err != nil {
			panic(stopExecution{fmt.Errorf("%w: %w", ErrCanceled, err)})
		}
	}
	// The stall watchdog and the round budget fire at whichever absolute
	// round comes first, exactly as stepping the stretch one round at a time
	// would (the budget aborts before its round runs, the watchdog after).
	stallAt := e.stallRound(k)
	if e.ctl.MaxRounds > 0 && e.rounds+k > e.ctl.MaxRounds && (stallAt == 0 || stallAt > e.ctl.MaxRounds) {
		e.rounds = e.ctl.MaxRounds
		e.fireRestarts()
		panic(stopExecution{ErrRoundBudget})
	}
	if stallAt != 0 {
		e.rounds = stallAt
		e.idle = e.ctl.StallWindow
		e.fireRestarts()
		panic(stopExecution{ErrStalled})
	}
	e.rounds += k
	e.idle += k
	e.fireRestarts()
}

// NextActive declares that no node transmits in any round strictly before
// the absolute round r: the rounds between the current round and r are
// provably silent, so the environment collapses them in one Skip and the
// next Step executes round r. Schedule layers call it when the transmission
// schedule lets them prove silence ahead of time (no scheduled sender, an
// empty sender set, or a wholly silent pass).
//
// The collapsed rounds are accounted exactly — Stats.Rounds, phase marks
// and the round budget behave byte-identically to stepping through each
// silent round — and the observer receives one synthesized round boundary
// (transmitters = 0, deliveries = 0) for the whole batch, carrying the last
// skipped round. A target at or before the next round is a no-op, so
// callers may flush unconditionally. Control.DisableFastForward switches to
// the naive one-round-at-a-time replay.
func (e *Env) NextActive(r int64) {
	k := r - 1 - e.rounds
	if k <= 0 {
		return
	}
	if e.ctl.DisableFastForward {
		for ; k > 0; k-- {
			e.checkStop()
			e.rounds++
			e.fireRestarts()
			if e.ctl.Observer != nil {
				e.ctl.Observer.OnRound(e.rounds, 0, 0)
			}
			e.noteSilentRound()
		}
		return
	}
	e.Skip(k)
	if e.ctl.Observer != nil {
		e.ctl.Observer.OnRound(e.rounds, 0, 0)
	}
}

// PassBuf returns the execution's shared delivery-accumulation buffer,
// reset to length zero. The accumulating pass wrappers (comm.SNS.Run and
// proximity.Schedule.Run) collect one full pass's deliveries in it, for the
// callers that read a pass as a whole: the MIS exchange, the proximity
// schedule replays of sparsification, labeling and clustering, and tests. Callers that consume deliveries one
// round at a time stream the pass instead and never touch the buffer. The
// returned slice of one pass is valid only until the next pass starts on
// this environment; callers consume each pass's deliveries before starting
// another (every caller in this repository does). Like Step's buffer, it
// exists to keep the steady-state round loop allocation-free.
func (e *Env) PassBuf() []Delivery { return e.passBuf[:0] }

// SetPassBuf stores the (possibly grown) buffer back after a pass.
func (e *Env) SetPassBuf(b []Delivery) { e.passBuf = b }

// AppendPass appends one round's deliveries to a pass accumulator, doubling
// its capacity when full: append's ~1.25× growth for large slices would
// re-copy the 64-byte values several times over while a pass buffer first
// grows to its working size.
func AppendPass(all, ds []Delivery) []Delivery {
	if need := len(all) + len(ds); need > cap(all) {
		grown := make([]Delivery, len(all), max(need, 2*cap(all)))
		copy(grown, all)
		all = grown
	}
	return append(all, ds...)
}
