package dcluster

import (
	"context"
	"testing"
)

// mustRun executes task on net with a background context and stops the
// test or benchmark on error.
func mustRun(tb testing.TB, net *Network, task Task) *Result {
	tb.Helper()
	res, err := net.Run(context.Background(), task)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil); err == nil {
		t.Error("empty point set must error")
	}
	bad := DefaultParams()
	bad.Alpha = 1
	if _, err := NewNetwork([]Point{Pt(0, 0)}, WithParams(bad)); err == nil {
		t.Error("invalid params must error")
	}
	var zero Config
	if _, err := NewNetwork([]Point{Pt(0, 0)}, WithConfig(zero)); err == nil {
		t.Error("invalid config must error")
	}
}

func TestNetworkProperties(t *testing.T) {
	pts := LinePath(10, 0.7)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	if net.Len() != 10 {
		t.Errorf("Len = %d", net.Len())
	}
	if !net.Connected() {
		t.Error("line must be connected")
	}
	if d := net.Diameter(); d != 9 {
		t.Errorf("Diameter = %d", d)
	}
	if net.Density() < 1 || net.MaxDegree() < 1 {
		t.Error("density/degree must be positive")
	}
	if len(net.Positions()) != 10 || len(net.CommGraph()) != 10 {
		t.Error("positions/comm graph sizes wrong")
	}
}

func TestClusterEndToEnd(t *testing.T) {
	pts := UniformDisk(40, 1.8, 3)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, net, Clustering()).Cluster
	if err := net.ValidateClustering(res); err != nil {
		t.Error(err)
	}
	if res.NumClusters() < 1 {
		t.Error("no clusters")
	}
	if res.Stats.Rounds <= 0 {
		t.Error("round cost must be positive")
	}
}

func TestLocalBroadcastEndToEnd(t *testing.T) {
	pts := UniformDisk(36, 1.8, 5)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, net, LocalBroadcast()).Local
	if !res.Complete(net) {
		t.Error("local broadcast incomplete")
	}
}

func TestGlobalBroadcastEndToEnd(t *testing.T) {
	pts := ConnectedStrip(40, 6, 1, 0.75, 7)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, net, GlobalBroadcast(0)).Broadcast
	if res.Coverage() != 1 {
		t.Errorf("coverage = %v, want 1", res.Coverage())
	}
	if len(res.PhaseTrace) == 0 {
		t.Error("no phase trace")
	}
}

func TestMultiSourceValidatesSparsity(t *testing.T) {
	pts := LinePath(6, 0.5)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(context.Background(), MultiSourceBroadcast([]int{0, 1})); err == nil {
		t.Error("close sources must be rejected")
	}
}

func TestElectLeaderEndToEnd(t *testing.T) {
	pts := LinePath(8, 0.7)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, net, ElectLeader()).Leader
	if res.Leader < 0 || res.Leader >= net.Len() {
		t.Errorf("leader index %d out of range", res.Leader)
	}
}

func TestWakeUpEndToEnd(t *testing.T) {
	pts := LinePath(8, 0.7)
	net, err := NewNetwork(pts)
	if err != nil {
		t.Fatal(err)
	}
	spont := make([]int64, net.Len())
	for i := range spont {
		spont[i] = -1
	}
	spont[2] = 0
	res := mustRun(t, net, WakeUp(spont)).Wake
	for i, r := range res.AwakeRound {
		if r < 0 {
			t.Errorf("node %d never woke", i)
		}
	}
}

func TestWithIDs(t *testing.T) {
	pts := LinePath(4, 0.7)
	ids := []int{10, 20, 30, 40}
	net, err := NewNetwork(pts, WithIDs(ids, 64))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, net, Clustering()).Cluster
	for id := range res.Center {
		found := false
		for _, x := range ids {
			if int(id) == x {
				found = true
			}
		}
		if !found {
			t.Errorf("cluster id %d is not a node id", id)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	pts := UniformDisk(25, 1.5, 9)
	run := func() Stats {
		net, err := NewNetwork(pts)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, net, Clustering()).Cluster
		return res.Stats
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stats differ across identical runs: %+v vs %+v", a, b)
	}
}

func TestEngineSelection(t *testing.T) {
	pts := UniformDisk(40, 1.8, 3)
	for _, tt := range []struct {
		opt  EngineKind
		want EngineKind
	}{
		{EngineAuto, EngineDense}, // 40 < SparseAutoThreshold
		{EngineDense, EngineDense},
		{EngineSparse, EngineSparse},
	} {
		net, err := NewNetwork(pts, WithEngine(tt.opt))
		if err != nil {
			t.Fatal(err)
		}
		if got := net.Engine(); got != tt.want {
			t.Errorf("WithEngine(%s): resolved %s, want %s", tt.opt, got, tt.want)
		}
	}
	if _, err := NewNetwork(pts, WithEngine(EngineKind("warp"))); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestClusterEngineEquivalence runs the full clustering stack on both
// engines and demands identical outcomes: cluster assignment, centres and
// round costs. This is the end-to-end counterpart of the per-round
// equivalence property in internal/sinr.
func TestClusterEngineEquivalence(t *testing.T) {
	pts := UniformDisk(60, 2.2, 17)
	dense, err := NewNetwork(pts, WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewNetwork(pts, WithEngine(EngineSparse))
	if err != nil {
		t.Fatal(err)
	}
	dres := mustRun(t, dense, Clustering()).Cluster
	sres := mustRun(t, sparse, Clustering()).Cluster
	if dres.Stats != sres.Stats {
		t.Errorf("stats diverge: dense %+v sparse %+v", dres.Stats, sres.Stats)
	}
	for v := range dres.ClusterOf {
		if dres.ClusterOf[v] != sres.ClusterOf[v] {
			t.Fatalf("node %d: dense cluster %d, sparse cluster %d", v, dres.ClusterOf[v], sres.ClusterOf[v])
		}
	}
	for id, c := range dres.Center {
		if sres.Center[id] != c {
			t.Fatalf("centre of %d: dense %d sparse %d", id, c, sres.Center[id])
		}
	}
}
