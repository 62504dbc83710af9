package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"dcluster"
	"dcluster/internal/broadcast"
	"dcluster/internal/config"
	"dcluster/internal/core"
	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// Deliver size classes by transmitter count: the solo rounds the schedules
// mostly generate, small rounds, and the dense rounds the sparse engine's
// accumulating path serves (it takes |txs| > 24).
const (
	classSolo = iota
	classSmall
	classLarge
	numClasses
)

var classNames = [numClasses]string{"solo", "small", "large"}

func txClass(txs int) int {
	switch {
	case txs == 1:
		return classSolo
	case txs <= 24:
		return classSmall
	}
	return classLarge
}

// deliverStats aggregates the engine calls made inside one span.
type deliverStats struct {
	Calls      [numClasses]int64   `json:"calls"` // solo, small, large
	Secs       [numClasses]float64 `json:"secs"`
	Txs        int64               `json:"txs"`
	Offered    int64               `json:"listeners_offered"` // listeners the engine was asked to decide
	Receptions int64               `json:"receptions"`
}

func (d *deliverStats) add(o deliverStats) {
	for c := range d.Calls {
		d.Calls[c] += o.Calls[c]
		d.Secs[c] += o.Secs[c]
	}
	d.Txs += o.Txs
	d.Offered += o.Offered
	d.Receptions += o.Receptions
}

func (d *deliverStats) calls() int64  { return d.Calls[0] + d.Calls[1] + d.Calls[2] }
func (d *deliverStats) secs() float64 { return d.Secs[0] + d.Secs[1] + d.Secs[2] }

// timedEngine times every Deliver of the session it wraps and charges it to
// the current phase. It sits below the fault decorator, so it times exactly
// the engine's work, and forwards sinr.StopChecker so a traced run stays
// cancellable mid-round like an untraced one.
type timedEngine struct {
	sinr.Engine
	into *deliverStats
}

func (e *timedEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	before := len(dst)
	t0 := time.Now()
	dst = e.Engine.Deliver(txs, listeners, dst)
	d := time.Since(t0).Seconds()
	offered := len(listeners)
	if listeners == nil {
		offered = e.N() - len(txs)
	}
	c := txClass(len(txs))
	s := e.into
	s.Calls[c]++
	s.Secs[c] += d
	s.Txs += int64(len(txs))
	s.Offered += int64(offered)
	s.Receptions += int64(len(dst) - before)
	return dst
}

// SetStopCheck implements sinr.StopChecker.
func (e *timedEngine) SetStopCheck(fn func() error) {
	if sc, ok := e.Engine.(sinr.StopChecker); ok {
		sc.SetStopCheck(fn)
	}
}

// phase is the part of a run between two phase marks. The part before the
// first mark is labelled unmarkedPhase.
type phase struct {
	label              string
	start, end         time.Time
	startRound, rounds int64
	deliver            deliverStats
}

const unmarkedPhase = "unmarked"

// roundCounts are the observer's view of where the rounds went.
type roundCounts struct {
	callbacks     int64 // OnRound calls; a fast-forwarded batch is one
	nonsilent     int64 // rounds with a transmitter: Step, StepMemo or StepReplay
	transmissions int64
	deliveries    int64
}

// phaseObserver is the sim.Observer of a traced run: it counts rounds and
// opens a new phase at every mark, redirecting the engine's counters to it.
type phaseObserver struct {
	eng    *timedEngine
	counts roundCounts
	phases []*phase
}

func (o *phaseObserver) OnRound(_ int64, transmitters, deliveries int) {
	o.counts.callbacks++
	if transmitters > 0 {
		o.counts.nonsilent++
		o.counts.transmissions += int64(transmitters)
		o.counts.deliveries += int64(deliveries)
	}
}

func (o *phaseObserver) OnPhase(label string, round int64) {
	now := time.Now()
	o.closePhase(round, now)
	o.openPhase(label, round, now)
}

func (o *phaseObserver) openPhase(label string, round int64, now time.Time) {
	p := &phase{label: label, start: now, startRound: round}
	o.phases = append(o.phases, p)
	o.eng.into = &p.deliver
}

func (o *phaseObserver) closePhase(round int64, now time.Time) {
	if n := len(o.phases); n > 0 {
		p := o.phases[n-1]
		p.end, p.rounds = now, round-p.startRound
	}
}

// tracedSetup is one instance's engine and density Γ, built as NewNetwork
// and Density build them, with each step timed. It is built once per
// instance; every traced sample of the instance runs on a session of it.
type tracedSetup struct {
	field                   sinr.Engine
	gamma                   int
	start, engineDone, done time.Time
	speed                   float64 // of the first traced run, see speed.go
}

func (s *tracedSetup) engineSecs() float64  { return s.engineDone.Sub(s.start).Seconds() * s.speed }
func (s *tracedSetup) densitySecs() float64 { return s.done.Sub(s.engineDone).Seconds() * s.speed }

func newTracedSetup(w workload, in instance) (*tracedSetup, error) {
	s := &tracedSetup{start: time.Now()}
	var err error
	if w.engine == dcluster.EngineSparse {
		s.field, err = sinr.NewSparseField(sinr.DefaultParams(), in.pts)
	} else {
		s.field, err = sinr.NewField(sinr.DefaultParams(), in.pts)
	}
	if err != nil {
		return nil, err
	}
	s.engineDone = time.Now()
	s.gamma = geom.Density(in.pts, 1)
	s.done = time.Now()
	return s, nil
}

// tracedSample is one traced execution of one instance.
type tracedSample struct {
	start, end time.Time
	speed      float64 // see speed.go
	rounds     int64
	counts     roundCounts
	phases     []*phase
	res        *dcluster.Result
}

// wall is the run's time in reference seconds.
func (t *tracedSample) wall() float64 { return t.end.Sub(t.start).Seconds() * t.speed }

func (t *tracedSample) deliver() deliverStats {
	var d deliverStats
	for _, p := range t.phases {
		d.add(p.deliver)
	}
	return d
}

// tracedRun executes one instance through the same pipeline Network.Run
// assembles — engine session, sim.NewEnv and SetControl, fault.Wrap where the
// instance carries faults, then the task's internal entry point — with a
// timed engine under the fault layer and a phaseObserver attached.
func tracedRun(w workload, in instance, setup *tracedSetup) (*tracedSample, error) {
	t := &tracedSample{start: time.Now()}
	timed := &timedEngine{Engine: setup.field.Session()}
	var eng sinr.Engine = timed
	ctl := sim.Control{Ctx: context.Background()}
	if in.faults != nil && !in.faults.Empty() {
		spec := in.faults.Clone()
		if err := spec.Validate(len(in.pts), true); err != nil {
			return nil, err
		}
		ctl.ImpureReception = true
		if spec.EngineFaults() {
			eng = fault.Wrap(timed, &spec)
		}
		if spec.HasNodeFaults() {
			ctl.NodeFaults = &spec
		}
	}
	env, err := sim.NewEnv(eng, nil, 0)
	if err != nil {
		return nil, err
	}
	obs := &phaseObserver{eng: timed}
	obs.openPhase(unmarkedPhase, 0, t.start)
	ctl.Observer = obs
	env.SetControl(ctl)

	res := &dcluster.Result{Algorithm: w.task.task().Name()}
	err = runProtected(func() error { return w.task.runInternal(env, len(in.pts), setup.gamma, res) })
	t.end = time.Now()
	obs.closePhase(env.Rounds(), t.end)
	t.phases = obs.phases
	t.counts = obs.counts
	t.rounds = env.Rounds()
	if err != nil {
		return nil, err
	}

	s := env.Stats()
	res.Stats = dcluster.Stats{
		Rounds:        s.Rounds,
		Transmissions: s.Transmissions,
		Deliveries:    s.Deliveries,
		MaxNodeTx:     env.Energy().Max,
	}
	for _, m := range env.Marks() {
		res.Marks = append(res.Marks, dcluster.PhaseMark{Label: m.Label, Round: m.Round})
	}
	switch {
	case res.Cluster != nil:
		res.Cluster.Stats = res.Stats
	case res.Local != nil:
		res.Local.Stats = res.Stats
	case res.Broadcast != nil:
		res.Broadcast.Stats = res.Stats
	}
	t.res = res
	return t, nil
}

// runInternal calls the entry point the public Task wraps and fills the
// task's field of res the way the Task does.
func (k taskKind) runInternal(env *sim.Env, n, gamma int, res *dcluster.Result) error {
	cfg := config.Default()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	switch k {
	case clustering:
		a, err := core.Cluster(env, core.ClusterInput{Cfg: cfg, Nodes: nodes, Gamma: gamma})
		if err != nil {
			return err
		}
		res.Cluster = &dcluster.ClusterResult{ClusterOf: a.ClusterOf, Center: a.Center}
	case localBroadcast:
		r, err := broadcast.Local(env, broadcast.LocalInput{Cfg: cfg, Nodes: nodes, Delta: gamma})
		if err != nil {
			return err
		}
		res.Local = &dcluster.LocalBroadcastResult{
			Clustering: &dcluster.ClusterResult{ClusterOf: r.Assignment.ClusterOf, Center: r.Assignment.Center},
			Label:      r.Label,
			Heard:      r.Heard,
		}
	case globalBroadcast:
		srcs := []int{0}
		if err := broadcast.ValidateSourcesSparse(env, srcs); err != nil {
			return err
		}
		r, err := broadcast.Global(env, broadcast.GlobalInput{Cfg: cfg, Sources: srcs, Delta: gamma})
		if err != nil {
			return err
		}
		res.Broadcast = &dcluster.GlobalBroadcastResult{
			AwakePhase: r.AwakeAtPhase,
			AwakeRound: r.AwakeRound,
			PhaseTrace: r.Phases,
		}
	}
	return nil
}

// runProtected turns a panic out of the execution into an error, as Run
// does, so a broken traced run is counted as failed instead of killing the
// benchmark.
func runProtected(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e := sim.StopError(r); e != nil {
				err = e
				return
			}
			if e := sinr.AbortError(r); e != nil {
				err = e
				return
			}
			err = fmt.Errorf("panic in traced run: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}
