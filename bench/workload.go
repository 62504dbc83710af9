package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"

	"dcluster"
)

// taskKind is the protocol a workload runs. The untraced side calls it
// through the public Task, the traced side through the internal entry point
// the Task wraps (see tracedRun).
type taskKind int

const (
	clustering taskKind = iota
	localBroadcast
	globalBroadcast
)

func (k taskKind) task() dcluster.Task {
	switch k {
	case localBroadcast:
		return dcluster.LocalBroadcast()
	case globalBroadcast:
		return dcluster.GlobalBroadcast(0)
	}
	return dcluster.Clustering()
}

// workload is one fixed task over a set of instances drawn from the seed.
// The reasons each workload exists are in BENCHMARK.json and README.md.
//
// One run averages over several instances, because the protocols' round
// counts follow the drawn density Γ: a single instance per seed would make
// the seed, not the code, the largest source of spread.
type workload struct {
	name      string
	task      taskKind
	engine    dcluster.EngineKind
	n         int // nodes per instance
	instances int // instances per run
	faults    bool
	points    func(n int, seed int64) []dcluster.Point
}

var workloads = []workload{
	{
		name: "cluster-disk-256", task: clustering, engine: dcluster.EngineDense,
		n: 256, instances: 40,
		points: func(n int, seed int64) []dcluster.Point {
			return dcluster.UniformDisk(n, math.Sqrt(float64(n))/5, seed)
		},
	},
	{
		name: "cluster-disk-512-sparse", task: clustering, engine: dcluster.EngineSparse,
		n: 512, instances: 12,
		points: func(n int, seed int64) []dcluster.Point {
			return dcluster.UniformDisk(n, math.Sqrt(float64(n))/5, seed)
		},
	},
	{
		name: "global-strip-2000", task: globalBroadcast, engine: dcluster.EngineDense,
		n: 2000, instances: 4,
		points: func(n int, seed int64) []dcluster.Point {
			return dcluster.ConnectedStrip(n, 0.15*float64(n), 1, 0.7, seed)
		},
	},
	{
		// Four clumps of n/4 nodes, 16 apart: Γ is one clump's size. With
		// random clump centres, Γ jumped from 64 to ~120 whenever two
		// clumps overlapped, and the round count with it.
		name: "local-clumps-256-drop", task: localBroadcast, engine: dcluster.EngineDense,
		n: 256, instances: 12, faults: true,
		points: func(n int, seed int64) []dcluster.Point {
			var pts []dcluster.Point
			for c := range 4 {
				for _, p := range dcluster.GaussianClusters(n/4, 1, 0, 0.3, 4*seed+int64(c)) {
					pts = append(pts, dcluster.Pt(p.X+16*float64(c), p.Y))
				}
			}
			return pts
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one generated input: node positions plus the run options the
// workload attaches.
type instance struct {
	pts    []dcluster.Point
	faults *dcluster.FaultSpec
}

// instanceSeed derives the k-th instance's generator seed from the run seed.
func instanceSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

func (w workload) instance(seed int64, k int) (instance, error) {
	s := instanceSeed(seed, k)
	in := instance{pts: w.points(w.n, s)}
	if w.faults {
		spec, err := dcluster.ParseFaultSpec(fmt.Sprintf("seed=%d;drop=0.05", s))
		if err != nil {
			return instance{}, err
		}
		in.faults = &spec
	}
	return in, nil
}

// newNetwork is the set-up a user of the library pays: engine construction
// and the density Γ every task reads.
func (w workload) newNetwork(in instance) (*dcluster.Network, error) {
	net, err := dcluster.NewNetwork(in.pts, dcluster.WithEngine(w.engine))
	if err != nil {
		return nil, err
	}
	net.Density()
	return net, nil
}

// run is one untraced execution through the public API.
func (w workload) run(net *dcluster.Network, in instance) (*dcluster.Result, error) {
	var opts []dcluster.RunOption
	if in.faults != nil {
		opts = append(opts, dcluster.WithFaults(*in.faults))
	}
	return net.Run(context.Background(), w.task.task(), opts...)
}

// check verifies one Run's output against the task's guarantee.
func (w workload) check(net *dcluster.Network, res *dcluster.Result, err error) error {
	if err != nil {
		return err
	}
	switch w.task {
	case clustering:
		return net.ValidateClustering(res.Cluster)
	case localBroadcast:
		if !res.Local.Complete(net) {
			return errors.New("local broadcast incomplete: a neighbour missed a message")
		}
		return net.ValidateClustering(res.Local.Clustering)
	case globalBroadcast:
		if c := res.Broadcast.Coverage(); c != 1 {
			return fmt.Errorf("global broadcast reached %.4f of the nodes", c)
		}
	}
	return nil
}

// sameResult reports how two executions of one instance differ: the
// protocols are deterministic, so repeated runs, and traced against
// untraced runs, must agree on Stats, marks and every output field.
func sameResult(want, got *dcluster.Result) error {
	if want.Stats != got.Stats {
		return fmt.Errorf("stats differ: %+v vs %+v", want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want, got) {
		return errors.New("outputs differ (clusters, labels, receptions or coverage)")
	}
	return nil
}
