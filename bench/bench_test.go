package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"dcluster"
	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sinr"
)

// toy shrinks a workload to one instance of toyNodes nodes, keeping its
// topology family, engine, task and faults.
func toy(w workload) workload {
	w.n, w.instances = toyNodes, 1
	return w
}

const toyNodes = 32

// The traced pipeline must reproduce Network.Run exactly, including under
// fault injection, where the timed engine sits below the fault decorator.
func TestTracedRunEqualsUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := toy(w)
			in, err := w.instance(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			net, err := w.newNetwork(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.run(net, in)
			if err := w.check(net, want, err); err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			setup, err := newTracedSetup(w, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tracedRun(w, in, setup)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if err := sameResult(want, got.res); err != nil {
				t.Fatal(err)
			}
			d := got.deliver()
			if got.counts.transmissions != want.Stats.Transmissions || got.counts.deliveries != want.Stats.Deliveries {
				t.Errorf("observer saw %+v, Stats are %+v", got.counts, want.Stats)
			}
			if w.faults && d.calls() != got.counts.nonsilent {
				t.Errorf("faulted run: %d Deliver calls for %d non-silent rounds; faults must bypass memo and replay",
					d.calls(), got.counts.nonsilent)
			}
		})
	}
}

// A stop requested through the fault decorator must reach the engine under
// the timed wrapper and abort the round.
func TestTimedEngineForwardsStopCheck(t *testing.T) {
	pts := geom.UniformDisk(600, 0.4, 1) // every node hears node 0's cell block
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	timed := &timedEngine{Engine: f.Session(), into: &deliverStats{}}
	spec, err := dcluster.ParseFaultSpec("seed=1;drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	eng := fault.Wrap(timed, &spec)
	stop := errors.New("stop")
	eng.SetStopCheck(func() error { return stop })
	defer func() {
		if err := sinr.AbortError(recover()); !errors.Is(err, stop) {
			t.Fatalf("Deliver ended with %v, want the stop error", err)
		}
	}()
	eng.Deliver([]int{0}, nil, nil)
	t.Fatal("Deliver ignored the stop check")
}

// Every workload runs at toy scale in both trace modes, checks its outputs,
// and emits exactly the metrics BENCHMARK.json names, with their units.
func TestSmokeEmitsBenchmarkMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, c := range []struct {
				trace bool
				want  []metricSpec
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				_, res, err := measure(toy(w), options{seed: 1, seconds: 0.01, trace: c.trace})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", c.trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(c.want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", c.trace, len(res.Metrics), len(c.want))
				}
				for _, m := range c.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v (present %v), want unit %s", c.trace, m.Name, got, ok, m.Unit)
					}
				}
			}
		})
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
