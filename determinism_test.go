package dcluster_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"dcluster"
)

// Cross-process determinism harness.
//
// The protocol stack promises bit-identical Results for identical inputs,
// but Go randomizes map iteration order (and the hash seed behind it) per
// process — so any place where an algorithm's output depends on map order
// can pass a single-process test forever and still be nondeterministic in
// the wild. This harness runs the full task × topology × engine matrix in
// *separate* `go test` processes (distinct map hash seeds) and
// byte-compares a canonical, explicitly-ordered serialization of every
// Result. It is a permanent gate: any future map-order leak in
// proximity/mis/core/sparsify/broadcast shows up here as a cross-process
// diff.
//
// The children also run under different GOMAXPROCS (1 and 4). Clustering on
// a 256-node disk, on either engine, runs schedule passes large enough to
// be resolved and to have their misses spread over helper sessions: the
// GOMAXPROCS=1 child computes every miss on the caller's session, the other
// spreads them over four, and the dumps must still agree byte for byte.

const determinismChildEnv = "DCLUSTER_DETERMINISM_CHILD"

const (
	determinismBegin = "DCLUSTER-DETERMINISM-BEGIN"
	determinismEnd   = "DCLUSTER-DETERMINISM-END"
)

type determinismCase struct {
	name string
	pts  []dcluster.Point
	task func(n int) dcluster.Task
}

// determinismCases enumerates the matrix in a fixed slice order (never a
// map — the harness itself must not depend on map iteration).
func determinismCases() []determinismCase {
	clustering := func(int) dcluster.Task { return dcluster.Clustering() }
	local := func(int) dcluster.Task { return dcluster.LocalBroadcast() }
	global := func(int) dcluster.Task { return dcluster.GlobalBroadcast(0) }
	wake := func(n int) dcluster.Task {
		spont := make([]int64, n)
		for i := range spont {
			spont[i] = -1
		}
		spont[0] = 3
		return dcluster.WakeUp(spont)
	}
	leader := func(int) dcluster.Task { return dcluster.ElectLeader() }

	disk := dcluster.UniformDisk(36, 1.6, 3)
	line := dcluster.LinePath(12, 0.7)
	clumps := dcluster.GaussianClusters(30, 3, 2.5, 0.25, 5)
	grid := dcluster.GridLattice(6, 0.8, 0.05, 9)

	cases := []determinismCase{{
		name: "disk256/clustering",
		pts:  dcluster.UniformDisk(256, 3.2, 7),
		task: clustering,
	}}
	for _, topo := range []struct {
		name string
		pts  []dcluster.Point
	}{
		{"disk", disk}, {"line", line}, {"clumps", clumps}, {"grid", grid},
	} {
		for _, tk := range []struct {
			name string
			task func(n int) dcluster.Task
		}{
			{"clustering", clustering},
			{"local-broadcast", local},
			{"global-broadcast", global},
			{"wake-up", wake},
			{"leader-election", leader},
		} {
			cases = append(cases, determinismCase{
				name: topo.name + "/" + tk.name,
				pts:  topo.pts,
				task: tk.task,
			})
		}
	}
	return cases
}

// determinismDump runs the whole matrix and serializes every Result with
// explicit ordering (map keys sorted before printing).
func determinismDump() (string, error) {
	var b strings.Builder
	for _, tc := range determinismCases() {
		for _, eng := range []struct {
			name string
			kind dcluster.EngineKind
		}{
			{"dense", dcluster.EngineDense}, {"sparse", dcluster.EngineSparse},
		} {
			net, err := dcluster.NewNetwork(tc.pts, dcluster.WithEngine(eng.kind))
			if err != nil {
				return "", fmt.Errorf("%s/%s: %v", tc.name, eng.name, err)
			}
			res, err := net.Run(context.Background(), tc.task(net.Len()))
			if err != nil {
				return "", fmt.Errorf("%s/%s: %v", tc.name, eng.name, err)
			}
			fmt.Fprintf(&b, "=== %s/%s\n", tc.name, eng.name)
			dumpResult(&b, res)
		}
	}
	return b.String(), nil
}

func dumpResult(b *strings.Builder, res *dcluster.Result) {
	fmt.Fprintf(b, "algo=%s stats=%+v\n", res.Algorithm, res.Stats)
	for _, m := range res.Marks {
		fmt.Fprintf(b, "mark %q %d\n", m.Label, m.Round)
	}
	if res.Cluster != nil {
		dumpClustering(b, res.Cluster)
	}
	if res.Local != nil {
		dumpClustering(b, res.Local.Clustering)
		fmt.Fprintf(b, "label=%v\n", res.Local.Label)
		dumpHeard(b, res.Local.Heard)
	}
	if res.Broadcast != nil {
		fmt.Fprintf(b, "awakePhase=%v\nawakeRound=%v\n",
			res.Broadcast.AwakePhase, res.Broadcast.AwakeRound)
		for _, p := range res.Broadcast.PhaseTrace {
			fmt.Fprintf(b, "phase %+v\n", p)
		}
	}
	if res.Wake != nil {
		fmt.Fprintf(b, "wakeRound=%v epochs=%d\n", res.Wake.AwakeRound, res.Wake.Epochs)
	}
	if res.Leader != nil {
		fmt.Fprintf(b, "leader=%d id=%d probes=%d\n",
			res.Leader.Leader, res.Leader.LeaderID, res.Leader.Probes)
	}
}

func dumpClustering(b *strings.Builder, c *dcluster.ClusterResult) {
	fmt.Fprintf(b, "clusterOf=%v\n", c.ClusterOf)
	ids := make([]int32, 0, len(c.Center))
	for id := range c.Center {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b.WriteString("centers")
	for _, id := range ids {
		fmt.Fprintf(b, " %d:%d", id, c.Center[id])
	}
	b.WriteString("\n")
}

func dumpHeard(b *strings.Builder, heard map[int]map[int]bool) {
	us := make([]int, 0, len(heard))
	for u := range heard {
		us = append(us, u)
	}
	sort.Ints(us)
	for _, u := range us {
		vs := make([]int, 0, len(heard[u]))
		for v, ok := range heard[u] {
			if ok {
				vs = append(vs, v)
			}
		}
		sort.Ints(vs)
		fmt.Fprintf(b, "heard %d <- %v\n", u, vs)
	}
}

// TestDeterminismDump is the child half of the harness: when re-exec'd by
// TestCrossProcessDeterminism it prints the canonical dump between marker
// lines on stdout. Without the env var it is a no-op skip.
func TestDeterminismDump(t *testing.T) {
	if os.Getenv(determinismChildEnv) == "" {
		t.Skip("child mode only (spawned by TestCrossProcessDeterminism)")
	}
	dump, err := determinismDump()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(os.Stdout, "%s\n%s%s\n", determinismBegin, dump, determinismEnd)
}

func runDeterminismChild(t *testing.T, procs int) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDeterminismDump$", "-test.count=1")
	cmd.Env = append(os.Environ(), determinismChildEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", procs))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}
	s := string(out)
	i := strings.Index(s, determinismBegin)
	j := strings.Index(s, determinismEnd)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("child output missing dump markers:\n%s", s)
	}
	return s[i+len(determinismBegin)+1 : j]
}

// TestCrossProcessDeterminism byte-compares the canonical Result dumps of
// three executions of the full matrix under three distinct Go map hash
// seeds: this process plus two re-exec'd child test processes, the first
// with GOMAXPROCS=1 and the second with GOMAXPROCS=4.
func TestCrossProcessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full task matrix three times in separate processes")
	}
	if os.Getenv(determinismChildEnv) != "" {
		t.Skip("already in child mode")
	}
	want, err := determinismDump()
	if err != nil {
		t.Fatal(err)
	}
	for i, procs := range []int{1, 4} {
		got := runDeterminismChild(t, procs)
		if got != want {
			t.Errorf("child %d (GOMAXPROCS=%d) produced a different dump (map-order leak or parallel divergence?):\n%s",
				i, procs, firstDiff(want, got))
		}
	}
}

// firstDiff renders the first differing line of two dumps.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  parent: %s\n  child:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: parent %d lines, child %d lines", len(la), len(lb))
}
