package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"dcluster"
)

// options are one single-workload invocation's settings.
type options struct {
	seed    int64
	seconds float64 // measuring time, spread evenly over the instances
	trace   bool
	spans   *spanLog // nil unless -spans was given
}

// result is the line a single-workload invocation prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line printed before the result: the run's settings and the
// distribution of the Run times behind run_s (all instances pooled), which
// the result line has no room for.
type detail struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	Nproc      int      `json:"nproc"`
	Gomaxprocs int      `json:"gomaxprocs"`
	Instances  int      `json:"instances"`
	Samples    int      `json:"samples"`
	RunQ1      float64  `json:"run_s_q1"`
	RunQ3      float64  `json:"run_s_q3"`
	RunTailPct int      `json:"run_s_tail_pct,omitempty"`
	RunTail    float64  `json:"run_s_tail,omitempty"`
	RunRaw     float64  `json:"run_s_raw"` // in this machine's seconds
	Speed      float64  `json:"speed"`     // median speed factor, see speed.go
	FailedFrac float64  `json:"failed_frac"`
	Errors     []string `json:"errors,omitempty"`
}

// instSamples are the measurements taken on one instance.
type instSamples struct {
	wall, cpu []float64 // per untraced Run, in this machine's seconds
	speed     []float64 // the speed factor measured around each Run
	alloc     uint64    // bytes allocated by the untraced Runs
	rounds    int64
	setup     *tracedSetup // built by the first traced run
	traced    []*tracedSample
}

// seconds returns the samples in reference seconds.
func (s *instSamples) seconds(raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i, x := range raw {
		out[i] = x * s.speed[i]
	}
	return out
}

type measurement struct {
	w       workload
	opt     options
	start   time.Time
	probe   speedProbe
	speeds  []float64 // every speed factor measured
	insts   []instSamples
	attempt int
	failed  int
	errs    []string
}

// speed times the kernel and returns the speed factor for the work done
// since the kernel time before was taken: refNominal ÷ the mean of the two
// kernel times.
func (m *measurement) speed(before float64) float64 {
	f := refNominal / ((before + m.probe.kernel()) / 2)
	m.speeds = append(m.speeds, f)
	return f
}

func (m *measurement) fail(k int, what string, err error) {
	m.failed++
	if len(m.errs) < 8 {
		m.errs = append(m.errs, fmt.Sprintf("instance %d: %s: %v", k, what, err))
	}
}

// measure runs one workload: for each instance in turn it builds the
// network and repeats Runs (alternating with traced runs under -trace 1)
// while another repetition fits in the instance's share of the measuring
// time, checking every output. Instances run one at a time, so memory holds
// one network.
func measure(w workload, opt options) (detail, result, error) {
	m := &measurement{w: w, opt: opt, start: time.Now(), insts: make([]instSamples, w.instances)}
	slice := time.Duration(opt.seconds / float64(w.instances) * float64(time.Second))
	inputs := make([]instance, w.instances)
	for k := range inputs {
		in, err := w.instance(opt.seed, k)
		if err != nil {
			return detail{}, result{}, err
		}
		inputs[k] = in
	}
	for k, in := range inputs {
		net, err := w.newNetwork(in)
		if err != nil {
			return detail{}, result{}, err
		}
		var first *dcluster.Result
		if k == 0 {
			// Warm-up: the first Run of the process grows the heap and
			// fills the session pool, which later Runs do not pay.
			first = m.untraced(k, net, in, nil, false)
		}
		deadline := time.Now().Add(slice)
		for rep := time.Duration(0); rep == 0 || time.Now().Add(rep).Before(deadline); {
			t0 := time.Now()
			if res := m.untraced(k, net, in, first, true); first == nil {
				first = res
			}
			if opt.trace {
				m.traced(k, in, first)
			}
			rep = time.Since(t0)
		}
	}

	var res result
	if opt.trace {
		res.Metrics = m.layerMetrics()
	} else {
		res.Metrics = m.endToEndMetrics(inputs)
	}
	res.Attempted, res.Failed = m.attempt, m.failed
	res.Correct = m.failed == 0 && m.attempt > 0
	if opt.spans != nil {
		opt.spans.addWorkload(m)
	}
	return m.detail(), res, nil
}

// untraced times one public Run and checks it; the sample is recorded when
// record is set. It returns the result when the run passed its checks.
//
// Every Run, traced or not, starts after a collection, so it does not pay
// for the garbage of the one before.
func (m *measurement) untraced(k int, net *dcluster.Network, in instance, want *dcluster.Result, record bool) *dcluster.Result {
	m.attempt++
	runtime.GC()
	k0 := m.probe.kernel()
	a0, c0 := allocBytes(), cpuSeconds()
	t0 := time.Now()
	res, err := m.w.run(net, in)
	wall := time.Since(t0).Seconds()
	cpu, alloc := cpuSeconds()-c0, allocBytes()-a0
	speed := m.speed(k0)
	if err := m.w.check(net, res, err); err != nil {
		m.fail(k, "check", err)
		return nil
	}
	if want != nil {
		if err := sameResult(want, res); err != nil {
			m.fail(k, "repeat run", err)
			return nil
		}
	}
	if record {
		s := &m.insts[k]
		s.wall = append(s.wall, wall)
		s.cpu = append(s.cpu, cpu)
		s.speed = append(s.speed, speed)
		s.alloc += alloc
		s.rounds = res.Stats.Rounds
	}
	return res
}

// traced runs the instance through tracedRun and requires its Result to
// equal the untraced one.
func (m *measurement) traced(k int, in instance, want *dcluster.Result) {
	m.attempt++
	runtime.GC()
	k0 := m.probe.kernel()
	s := &m.insts[k]
	if s.setup == nil {
		setup, err := newTracedSetup(m.w, in)
		if err != nil {
			m.fail(k, "traced set-up", err)
			return
		}
		s.setup = setup
	}
	t, err := tracedRun(m.w, in, s.setup)
	speed := m.speed(k0)
	if s.setup.speed == 0 {
		s.setup.speed = speed
	}
	if err != nil {
		m.fail(k, "traced run", err)
		return
	}
	t.speed = speed
	if want == nil {
		m.fail(k, "traced run", fmt.Errorf("no passing untraced run to compare with"))
		return
	}
	if err := sameResult(want, t.res); err != nil {
		m.fail(k, "traced vs untraced", err)
		return
	}
	s.traced = append(s.traced, t)
}

// meanOver averages f over the instances that have untraced samples.
func (m *measurement) meanOver(f func(s *instSamples) float64) float64 {
	sum, n := 0.0, 0
	for i := range m.insts {
		if s := &m.insts[i]; len(s.wall) > 0 {
			sum += f(s)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// runSeconds is the mean over instances of the median Run time, in
// reference seconds.
func (m *measurement) runSeconds() float64 {
	return m.meanOver(func(s *instSamples) float64 { return median(s.seconds(s.wall)) })
}

func (m *measurement) endToEndMetrics(inputs []instance) map[string]metric {
	out := map[string]metric{
		"run_s": {m.runSeconds(), "s"},
		"cpu_s": {m.meanOver(func(s *instSamples) float64 { return median(s.seconds(s.cpu)) }), "s"},
		"alloc_mb_per_run": {m.meanOver(func(s *instSamples) float64 {
			return float64(s.alloc) / float64(len(s.wall)) / 1e6
		}), "MB"},
		"peak_rss_mb": {(peakRSSBytes() - float64(m.probe.footprint())) / 1e6, "MB"},
		"sim_rounds":  {m.meanOver(func(s *instSamples) float64 { return float64(s.rounds) }), "rounds"},
	}
	// Set-up is timed after the runs so its garbage cannot raise peak RSS.
	out["setup_s"] = metric{m.setupSeconds(inputs), "s"}
	return out
}

// setupBatches is the number of set-up timings setup_s is the median of.
const setupBatches = 9

// setupSeconds times NewNetwork + Density() in batches of at least 0.1 s
// (less only when the whole measuring time is under 5 s), so that
// sub-millisecond builds resolve, cycling through the instances, and
// returns the median per-build time in reference seconds.
func (m *measurement) setupSeconds(inputs []instance) float64 {
	batch := min(100*time.Millisecond, time.Duration(m.opt.seconds/50*float64(time.Second)))
	per := make([]float64, 0, setupBatches)
	for b := range setupBatches {
		in := inputs[b%len(inputs)]
		k0 := m.probe.kernel()
		t0 := time.Now()
		builds := 0
		for builds == 0 || time.Since(t0) < batch {
			if _, err := m.w.newNetwork(in); err != nil {
				m.fail(b%len(inputs), "set-up", err)
				return 0
			}
			builds++
		}
		secs := time.Since(t0).Seconds() / float64(builds)
		per = append(per, secs*m.speed(k0))
	}
	return median(per)
}

// phaseLabels are the phase marks the per-layer metrics report; the part of
// a run before any mark is unmarkedPhase. Only local broadcast marks phases
// today, so on the other tasks the whole run is unmarked.
var phaseLabels = []string{
	unmarkedPhase,
	"local-broadcast:clustering",
	"local-broadcast:labeling",
	"local-broadcast:sns-sweeps",
}

func phaseMetric(label, suffix string) string {
	return "phase." + strings.ReplaceAll(label, ":", ".") + "." + suffix
}

// layerSums are the additive quantities of one traced run, times in
// reference seconds; the per-layer metrics are formed from their means so
// each ratio keeps its base.
func layerSums(setup *tracedSetup, t *tracedSample) map[string]float64 {
	d := t.deliver()
	s := map[string]float64{
		"wall":                   t.wall(),
		"rounds":                 float64(t.rounds),
		"txs":                    float64(d.Txs),
		"sinr.deliver_s":         d.secs() * t.speed,
		"sinr.deliver_calls":     float64(d.calls()),
		"sinr.listeners_offered": float64(d.Offered),
		"sinr.receptions":        float64(d.Receptions),
		"sim.rounds_callback":    float64(t.counts.callbacks),
		"sim.rounds_nonsilent":   float64(t.counts.nonsilent),
		"sim.transmissions":      float64(t.counts.transmissions),
		"sim.deliveries":         float64(t.counts.deliveries),
		"setup.engine_s":         setup.engineSecs(),
		"setup.density_s":        setup.densitySecs(),
	}
	for c, name := range classNames {
		s["deliver_s."+name] = d.Secs[c] * t.speed
		s["sinr.deliver_calls."+name] = float64(d.Calls[c])
	}
	for _, l := range phaseLabels {
		s[phaseMetric(l, "s")] = 0
		s[phaseMetric(l, "rounds")] = 0
	}
	for _, p := range t.phases {
		s[phaseMetric(p.label, "s")] += p.end.Sub(p.start).Seconds() * t.speed
		s[phaseMetric(p.label, "rounds")] += float64(p.rounds)
	}
	return s
}

// layerMetrics averages the traced runs per instance, then over instances.
// Times split by Deliver class or phase are reported as shares of the
// traced run, so a class or phase a workload never enters reads 0 as a
// ratio rather than as a constant time.
func (m *measurement) layerMetrics() map[string]metric {
	mean := map[string]float64{}
	n := 0
	for _, inst := range m.insts {
		if len(inst.traced) == 0 {
			continue
		}
		n++
		for _, t := range inst.traced {
			for key, v := range layerSums(inst.setup, t) {
				mean[key] += v / float64(len(inst.traced))
			}
		}
	}
	for key := range mean {
		mean[key] /= float64(n)
	}

	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	copyAs := func(unit string, names ...string) {
		for _, name := range names {
			put(name, unit, mean[name])
		}
	}
	wall := mean["wall"]
	copyAs("s", "sinr.deliver_s", "setup.engine_s", "setup.density_s")
	copyAs("count", "sinr.deliver_calls", "sinr.listeners_offered", "sinr.receptions",
		"sim.rounds_callback", "sim.rounds_nonsilent", "sim.transmissions", "sim.deliveries")
	for _, name := range classNames {
		put("sinr.deliver_share."+name, "ratio", ratio(mean["deliver_s."+name], wall))
		copyAs("count", "sinr.deliver_calls."+name)
	}
	for _, l := range phaseLabels {
		put(phaseMetric(l, "share"), "ratio", ratio(mean[phaseMetric(l, "s")], wall))
		copyAs("rounds", phaseMetric(l, "rounds"))
	}

	calls, nonsilent := mean["sinr.deliver_calls"], mean["sim.rounds_nonsilent"]
	replayed := nonsilent - calls
	ff := mean["rounds"] - mean["sim.rounds_callback"]
	self := wall - mean["sinr.deliver_s"]
	put("sinr.deliver_share", "ratio", ratio(mean["sinr.deliver_s"], wall))
	put("sinr.txs_per_call", "count", ratio(mean["txs"], calls))
	put("sinr.reception_yield", "ratio", ratio(mean["sinr.receptions"], mean["sinr.listeners_offered"]))
	put("sim.rounds_replayed", "count", replayed)
	put("sim.replay_ratio", "ratio", ratio(replayed, nonsilent))
	put("sim.rounds_fastforwarded", "count", ff)
	put("sim.ff_ratio", "ratio", ratio(ff, mean["rounds"]))
	put("algo.self_s", "s", self)
	put("algo.self_share", "ratio", ratio(self, wall))
	put("trace.overhead", "ratio", m.traceOverhead())
	return out
}

// traceOverhead compares the traced and untraced medians of the same
// instances: traced wall ÷ untraced wall − 1.
func (m *measurement) traceOverhead() float64 {
	var traced, untraced float64
	for _, s := range m.insts {
		if len(s.traced) == 0 || len(s.wall) == 0 {
			continue
		}
		walls := make([]float64, len(s.traced))
		for i, t := range s.traced {
			walls[i] = t.wall()
		}
		traced += median(walls)
		untraced += median(s.seconds(s.wall))
	}
	return ratio(traced, untraced) - 1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (m *measurement) detail() detail {
	d := detail{
		Workload:   m.w.name,
		Seed:       m.opt.seed,
		Trace:      m.opt.trace,
		Nproc:      runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Instances:  len(m.insts),
		FailedFrac: ratio(float64(m.failed), float64(m.attempt)),
		Errors:     m.errs,
		RunRaw:     m.meanOver(func(s *instSamples) float64 { return median(s.wall) }),
		Speed:      median(m.speeds),
	}
	var pooled []float64 // every Run of every instance, in reference seconds
	for _, s := range m.insts {
		pooled = append(pooled, s.seconds(s.wall)...)
	}
	if d.Samples = len(pooled); d.Samples > 0 {
		d.RunQ1, d.RunQ3 = quartiles(pooled)
		d.RunTailPct, d.RunTail, _ = tail(pooled)
	}
	return d
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rusage is the process's resource usage, all threads included (the sparse
// engine's Deliver workers and the collector).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSBytes is the process's resident-set high-water mark (VmHWM); Linux
// reports it in kilobytes.
func peakRSSBytes() float64 { return float64(rusage().Maxrss) * 1024 }
