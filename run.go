package dcluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"dcluster/internal/broadcast"
	"dcluster/internal/core"
	"dcluster/internal/fault"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// ErrRoundBudget is returned by Run when the WithMaxRounds budget is
// exhausted before the task completes. The accompanying *Result carries the
// partial execution statistics. Test with errors.Is.
var ErrRoundBudget = sim.ErrRoundBudget

// ErrCanceled is returned by Run when the context is cancelled, wrapped
// around the context's own error — errors.Is matches both ErrCanceled and
// context.Canceled / DeadlineExceeded. Cancellation is honored mid-round:
// both engines poll the context inside their Deliver loops, so even a
// single multi-second dense round at large n aborts promptly with partial
// Stats.
var ErrCanceled = sim.ErrCanceled

// ErrStalled is returned by Run when the WithStallDetector watchdog fires:
// no observable progress (no delivery, no phase mark) for the configured
// window of consecutive rounds. The partial Result is returned alongside.
var ErrStalled = sim.ErrStalled

// ErrBadOption is returned by Run when a RunOption carries an invalid value
// (non-positive round budget or stall window, nil observer, conflicting or
// invalid fault specs). The check is fail-fast: nothing runs.
var ErrBadOption = errors.New("dcluster: invalid run option")

// ErrInternal is returned by Run when the execution panics outside the
// controlled abort paths — a buggy observer, an engine invariant violation —
// instead of crashing the caller. The error carries the panic value and
// stack; the partial Result is returned alongside.
var ErrInternal = errors.New("dcluster: internal panic during run")

// ErrInvariant is returned by Run when a completed clustering violates the
// paper's invariants (every node assigned, heads within the radius bound,
// heads pairwise separated) — the expected failure mode under fault
// injection. The Result still carries the invalid clustering so callers can
// inspect how it degraded.
var ErrInvariant = errors.New("dcluster: clustering invariant violated")

// FaultSpec is a deterministic fault scenario for WithFaults: seeded
// probabilistic drops, noise spikes, jammers and node crash/sleep schedules.
// Build one literally or with ParseFaultSpec; the zero FaultSpec injects
// nothing. Identical (seed, spec) pairs yield byte-identical executions on
// repeated runs and across both engines.
type FaultSpec = fault.Spec

// ParseFaultSpec parses the textual fault grammar, e.g.
// "seed=42; drop=0.2@100-500; jam=1.5,2,8; crash=3-8@50-300".
// See internal/fault.Parse for the full clause reference.
func ParseFaultSpec(s string) (FaultSpec, error) { return fault.Parse(s) }

// Observer receives execution callbacks from a running task, on the
// goroutine driving the Run. OnRound fires after every synchronous round
// (silent rounds included; provably empty stretches skipped in bulk are not
// reported individually); OnPhase fires at every algorithm phase mark.
// Implementations must be fast — they sit on the simulator's hot path.
type Observer = sim.Observer

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are simply not called.
type ObserverFuncs struct {
	Round func(round int64, transmitters, deliveries int)
	Phase func(label string, round int64)
}

// OnRound implements Observer.
func (o ObserverFuncs) OnRound(round int64, transmitters, deliveries int) {
	if o.Round != nil {
		o.Round(round, transmitters, deliveries)
	}
}

// OnPhase implements Observer.
func (o ObserverFuncs) OnPhase(label string, round int64) {
	if o.Phase != nil {
		o.Phase(label, round)
	}
}

// PhaseMark is a labelled point on the round timeline, recorded by the
// algorithms at phase transitions.
type PhaseMark struct {
	Label string
	Round int64
}

// RunOption customises one Run call.
type RunOption func(*runConfig)

type runConfig struct {
	maxRounds     int64
	observer      Observer
	noFastForward bool
	faults        *fault.Spec
	stallWindow   int64
	err           error // first invalid option; Run fails fast on it
}

// fail records the first option error (later options still apply, but Run
// refuses to start).
func (c *runConfig) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrBadOption, fmt.Sprintf(format, args...))
	}
}

// WithMaxRounds imposes a hard, deterministic round budget: the execution
// aborts with ErrRoundBudget before the round counter exceeds k. The
// returned Result carries the partial statistics. k must be positive; zero
// or negative budgets fail the Run with ErrBadOption instead of silently
// meaning "unlimited".
func WithMaxRounds(k int64) RunOption {
	return func(c *runConfig) {
		if k <= 0 {
			c.fail("WithMaxRounds(%d): budget must be positive", k)
			return
		}
		c.maxRounds = k
	}
}

// WithObserver attaches per-round and per-phase callbacks to the execution.
// A nil observer fails the Run with ErrBadOption (passing one is always a
// caller bug — omit the option instead).
func WithObserver(o Observer) RunOption {
	return func(c *runConfig) {
		if o == nil {
			c.fail("WithObserver(nil)")
			return
		}
		c.observer = o
	}
}

// WithFaults injects a deterministic fault scenario into the run: the
// spec's engine-level faults (drops, noise spikes, jammers) decorate the
// physical layer and its crash/sleep schedules gate node participation.
// The spec is validated against the network before anything runs
// (ErrBadOption on out-of-range nodes or parameters) and copied, so the
// caller's value may be reused or mutated freely. Repeating the option
// fails the Run — two specs cannot be merged meaningfully.
//
// Faults only remove receptions, so a faulted run still shares the
// reception memo: the environment recalls the fault-free outcome and
// filters it per round. An empty spec is exactly a fault-free run.
func WithFaults(spec FaultSpec) RunOption {
	s := spec.Clone() // snapshot now: the caller may mutate spec afterwards
	return func(c *runConfig) {
		if c.faults != nil {
			c.fail("WithFaults repeated")
			return
		}
		c.faults = &s
	}
}

// WithStallDetector arms the stall watchdog: the run aborts with ErrStalled
// (and partial Stats) after window consecutive rounds with no observable
// progress — no delivery and no phase mark. The window is measured on the
// round clock, so fast-forwarded silent stretches count against it (and
// abort at exactly the round single-stepping would). window must be
// positive, and sized well above the protocol's longest natural
// progress-free stretch — the built-in schedules legitimately run long
// delivery-free passes, so a small multiple of the instance's expected
// total round count is the safe choice; the watchdog is a hang detector,
// not a liveness profiler.
func WithStallDetector(window int64) RunOption {
	return func(c *runConfig) {
		if window <= 0 {
			c.fail("WithStallDetector(%d): window must be positive", window)
			return
		}
		c.stallWindow = window
	}
}

// WithFastForward toggles silent-round fast-forwarding (default on): the
// schedule layers declare provably silent stretches ahead of time and the
// environment collapses them in bulk instead of stepping through each empty
// round. Results, Stats and phase marks are byte-identical either way —
// that is the contract the fast-forward equivalence tests pin down. The
// only observable difference is observer granularity: with fast-forwarding
// on, a collapsed batch is reported as one synthesized OnRound(r, 0, 0)
// carrying the batch's last round, instead of one callback per silent
// round. Disabling it exists for equivalence testing, and for debugging
// observers that want every silent round individually.
func WithFastForward(enabled bool) RunOption {
	return func(c *runConfig) { c.noFastForward = !enabled }
}

// Result is the outcome of one Run. Stats and Marks are always populated
// (partially, if the run aborted); exactly one of the task-specific fields
// is set on success, matching the task that ran.
type Result struct {
	// Algorithm is the name of the task that produced this result.
	Algorithm string
	// Stats of the execution (partial if the run aborted).
	Stats Stats
	// Marks are the phase marks recorded during the execution.
	Marks []PhaseMark

	// Cluster is set by Clustering().
	Cluster *ClusterResult
	// Local is set by LocalBroadcast().
	Local *LocalBroadcastResult
	// Broadcast is set by GlobalBroadcast() and MultiSourceBroadcast().
	Broadcast *GlobalBroadcastResult
	// Wake is set by WakeUp().
	Wake *WakeUpResult
	// Leader is set by ElectLeader().
	Leader *LeaderResult
}

// Task is one executable protocol of the paper's algorithm stack. Tasks are
// built by the package-level constructors (Clustering, LocalBroadcast,
// GlobalBroadcast, MultiSourceBroadcast, WakeUp, ElectLeader) and executed
// with Network.Run; a Task value is stateless and may be reused across
// Runs and Networks.
type Task interface {
	// Name identifies the algorithm ("clustering", "local-broadcast", …).
	Name() string
	run(n *Network, env *sim.Env, res *Result) error
}

type taskFunc struct {
	name string
	fn   func(n *Network, env *sim.Env, res *Result) error
}

func (t taskFunc) Name() string                                    { return t.name }
func (t taskFunc) run(n *Network, env *sim.Env, res *Result) error { return t.fn(n, env, res) }

// Clustering returns the Theorem 1 task: deterministic distributed
// clustering — every node ends in a cluster of radius ≤ 1, cluster centres
// are pairwise ≥ 1−ε apart, and every unit ball meets O(1) clusters.
func Clustering() Task {
	return taskFunc{"clustering", func(n *Network, env *sim.Env, res *Result) error {
		a, err := core.Cluster(env, core.ClusterInput{
			Cfg:   n.cfg,
			Nodes: n.allNodes(),
			Gamma: n.Density(),
		})
		if err != nil {
			return err
		}
		// Record the clustering before judging it: under fault injection an
		// invalid assignment is an expected outcome, and callers inspect it
		// through the Result that accompanies ErrInvariant.
		res.Cluster = &ClusterResult{ClusterOf: a.ClusterOf, Center: a.Center}
		if err := n.validateClustering(a.ClusterOf, a.Center, 1.0); err != nil {
			return fmt.Errorf("%w: %v", ErrInvariant, err)
		}
		return nil
	}}
}

// LocalBroadcast returns the Theorem 2 task: every node delivers its
// message to all communication-graph neighbours in O(∆·log N·log*N) rounds.
func LocalBroadcast() Task {
	return taskFunc{"local-broadcast", func(n *Network, env *sim.Env, res *Result) error {
		r, err := broadcast.Local(env, broadcast.LocalInput{
			Cfg:   n.cfg,
			Nodes: n.allNodes(),
			Delta: n.Density(),
		})
		if err != nil {
			return err
		}
		res.Local = &LocalBroadcastResult{
			Clustering: &ClusterResult{ClusterOf: r.Assignment.ClusterOf, Center: r.Assignment.Center},
			Label:      r.Label,
			Heard:      r.Heard,
		}
		return nil
	}}
}

// GlobalBroadcast returns the Theorem 3 task: Algorithm 8 from a single
// source, O(D·(∆+log*N)·log N) rounds.
func GlobalBroadcast(source int) Task {
	t := MultiSourceBroadcast([]int{source}).(taskFunc)
	t.name = "global-broadcast"
	return t
}

// MultiSourceBroadcast returns the sparse multiple-source broadcast task:
// sources must be pairwise farther than 1−ε apart.
func MultiSourceBroadcast(sources []int) Task {
	srcs := append([]int(nil), sources...)
	return taskFunc{"multi-source-broadcast", func(n *Network, env *sim.Env, res *Result) error {
		if err := broadcast.ValidateSourcesSparse(env, srcs); err != nil {
			return err
		}
		r, err := broadcast.Global(env, broadcast.GlobalInput{
			Cfg:     n.cfg,
			Sources: srcs,
			Delta:   n.Density(),
		})
		if err != nil {
			return err
		}
		res.Broadcast = &GlobalBroadcastResult{
			AwakePhase: r.AwakeAtPhase,
			AwakeRound: r.AwakeRound,
			PhaseTrace: r.Phases,
		}
		return nil
	}}
}

// WakeUp returns the Theorem 4 task: spontaneousAt[i] is the round node i
// wakes spontaneously (-1 = only by message). All nodes are activated in
// O(D·(∆+log*N)·log N) rounds after the first spontaneous wake-up.
func WakeUp(spontaneousAt []int64) Task {
	spont := append([]int64(nil), spontaneousAt...)
	return taskFunc{"wake-up", func(n *Network, env *sim.Env, res *Result) error {
		r, err := broadcast.WakeUp(env, broadcast.WakeUpInput{
			Cfg:           n.cfg,
			SpontaneousAt: spont,
			Delta:         n.Density(),
		})
		if err != nil {
			return err
		}
		res.Wake = &WakeUpResult{AwakeRound: r.AwakeRound, Epochs: r.Epochs}
		return nil
	}}
}

// ElectLeader returns the Theorem 5 task: clustering condenses the network
// to its centres; binary search over the ID space elects the minimum-ID
// centre in O(D·(∆+log*N)·log²N) rounds.
func ElectLeader() Task {
	return taskFunc{"leader-election", func(n *Network, env *sim.Env, res *Result) error {
		r, err := broadcast.Leader(env, broadcast.LeaderInput{
			Cfg:   n.cfg,
			Nodes: n.allNodes(),
			Delta: n.Density(),
		})
		if err != nil {
			return err
		}
		res.Leader = &LeaderResult{Leader: r.Leader, LeaderID: r.LeaderID, Probes: r.Probes}
		return nil
	}}
}

// Run executes one task as a fresh synchronous execution over the network.
//
// The context is checked at round boundaries: once cancelled, the run
// aborts and returns the context's error together with a partial Result.
// WithMaxRounds imposes a deterministic round budget (typed ErrRoundBudget
// on exhaustion); WithObserver attaches per-round and per-phase callbacks.
//
// A Network is safe for concurrent Run calls: the physical-layer model is
// shared immutably, while each run owns a per-run engine session (pooled
// across runs) and a fresh execution environment. Algorithms are
// deterministic, so concurrent runs of the same task produce identical
// results.
func (n *Network) Run(ctx context.Context, task Task, opts ...RunOption) (*Result, error) {
	if task == nil {
		return nil, fmt.Errorf("dcluster: nil task")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	if rc.err != nil {
		return nil, rc.err
	}
	eng := n.acquireEngine()
	defer n.releaseEngine(eng)
	runEng := eng
	var nodeFaults sim.NodeFaults
	if rc.faults != nil && !rc.faults.Empty() {
		if err := rc.faults.Validate(n.Len(), true); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadOption, err)
		}
		if rc.faults.EngineFaults() {
			runEng = fault.Wrap(eng, rc.faults)
		}
		if rc.faults.HasNodeFaults() {
			nodeFaults = rc.faults
		}
	}
	env, err := sim.NewEnv(runEng, n.ids, n.idcap)
	if err != nil {
		return nil, err
	}
	env.SetControl(sim.Control{
		Ctx:                ctx,
		MaxRounds:          rc.maxRounds,
		Observer:           rc.observer,
		DisableFastForward: rc.noFastForward,
		NodeFaults:         nodeFaults,
		StallWindow:        rc.stallWindow,
	})

	res := &Result{Algorithm: task.Name()}
	err, aborted := runGuarded(func() error { return task.run(n, env, res) })
	res.Stats = statsOf(env)
	for _, m := range env.Marks() {
		res.Marks = append(res.Marks, PhaseMark{Label: m.Label, Round: m.Round})
	}
	// The sub-results describe the same execution; bench/trace.go reads
	// the stats from them, so mirror res.Stats into the one that is set.
	switch {
	case res.Cluster != nil:
		res.Cluster.Stats = res.Stats
	case res.Local != nil:
		res.Local.Stats = res.Stats
	case res.Broadcast != nil:
		res.Broadcast.Stats = res.Stats
	case res.Wake != nil:
		res.Wake.Stats = res.Stats
	case res.Leader != nil:
		res.Leader.Stats = res.Stats
	}
	if err != nil {
		if aborted || errors.Is(err, ErrInvariant) {
			// Graceful degradation: budget exhausted, cancelled, stalled,
			// recovered panic, or an invalid clustering — hand back whatever
			// the execution produced alongside the typed error.
			return res, err
		}
		return nil, err
	}
	return res, nil
}

// runGuarded runs fn, converting panics back into errors: a controlled
// execution abort (round budget, cancellation at a round boundary, stall
// watchdog) or a mid-round Deliver abort yields its typed error, and any
// other panic — a buggy observer, an engine invariant violation — is
// captured as ErrInternal with the panic value and stack instead of killing
// the caller.
func runGuarded(fn func() error) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if e := sim.StopError(r); e != nil {
				err, aborted = e, true
				return
			}
			if e := sinr.AbortError(r); e != nil {
				err, aborted = e, true
				return
			}
			err, aborted = fmt.Errorf("%w: %v\n%s", ErrInternal, r, debug.Stack()), true
		}
	}()
	return fn(), false
}
