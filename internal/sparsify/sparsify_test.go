package sparsify

import (
	"slices"
	"sort"
	"testing"

	"dcluster/internal/analysis"
	"dcluster/internal/config"
	"dcluster/internal/geom"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// clumps builds c tight clumps of m nodes each, clump i centred at (3i, 0),
// pre-clustered by clump. Returns points and cluster assignment.
func clumps(c, m int, spread float64) ([]geom.Point, []int32) {
	var pts []geom.Point
	var cl []int32
	for i := 0; i < c; i++ {
		base := geom.Pt(float64(i)*3, 0)
		for j := 0; j < m; j++ {
			dx := spread * float64(j%4) / 4
			dy := spread * float64(j/4) / 4
			pts = append(pts, base.Add(geom.Pt(dx, dy)))
			cl = append(cl, int32(i+1))
		}
	}
	return pts, cl
}

func newEnv(t *testing.T, pts []geom.Point) *sim.Env {
	t.Helper()
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	return sim.MustEnv(f, nil, 0)
}

func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func clusteredCall(t *testing.T, cfg config.Config, env *sim.Env, cl []int32, gamma int) Call {
	t.Helper()
	wcss, err := selectors.NewWCSS(env.N, cfg.Kappa, cfg.Rho, cfg.WCSSFactor, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return Call{
		Cfg:       cfg,
		Sched:     wcss,
		ClusterOf: func(v int) int32 { return cl[v] },
		Clustered: true,
		Gamma:     gamma,
	}
}

func unclusteredCall(t *testing.T, cfg config.Config, env *sim.Env, gamma int) Call {
	t.Helper()
	wss, err := selectors.NewWSS(env.N, cfg.Kappa, cfg.WSSFactor, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return Call{Cfg: cfg, Sched: selectors.Lift(wss), Gamma: gamma}
}

// checkForest validates the parent/child invariants of the State.
func checkForest(t *testing.T, st *State, survivors []int, all []int, cl []int32) {
	t.Helper()
	inSurv := map[int]bool{}
	for _, v := range survivors {
		inSurv[v] = true
	}
	for _, v := range all {
		p := st.Parent[v]
		if inSurv[v] {
			if p != -1 {
				t.Errorf("survivor %d has parent %d", v, p)
			}
			continue
		}
		if p == -1 {
			t.Errorf("removed node %d has no parent", v)
			continue
		}
		if cl != nil && cl[p] != cl[v] {
			t.Errorf("child %d cluster %d != parent %d cluster %d", v, cl[v], p, cl[p])
		}
		if !alreadyChild(st, p, v) {
			t.Errorf("parent %d did not record child %d", p, v)
		}
	}
}

func TestClusteredSparsificationReducesDensity(t *testing.T) {
	pts, cl := clumps(3, 12, 0.3)
	env := newEnv(t, pts)
	cfg := config.Default()
	st := NewState(len(pts))
	call := clusteredCall(t, cfg, env, cl, 12)
	res, err := Run(env, st, allNodes(len(pts)), call)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 8: survivors have ≤ (3/4)·Γ per cluster.
	counts := map[int32]int{}
	for _, v := range res.Survivors {
		counts[cl[v]]++
	}
	for φ, c := range counts {
		if c > 9 { // (3/4)·12
			t.Errorf("cluster %d kept %d > 9 nodes", φ, c)
		}
		if c < 1 {
			t.Errorf("cluster %d lost all nodes", φ)
		}
	}
	// Every cluster retains at least one survivor.
	for φ := int32(1); φ <= 3; φ++ {
		if counts[φ] == 0 {
			t.Errorf("cluster %d has no survivor", φ)
		}
	}
	checkForest(t, st, res.Survivors, allNodes(len(pts)), cl)
}

func TestSubtreeSizesConsistent(t *testing.T) {
	pts, cl := clumps(2, 10, 0.25)
	env := newEnv(t, pts)
	cfg := config.Default()
	st := NewState(len(pts))
	call := clusteredCall(t, cfg, env, cl, 10)
	res, err := Run(env, st, allNodes(len(pts)), call)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of survivor subtree sizes = total node count (forest partition).
	total := 0
	for _, v := range res.Survivors {
		total += st.SubtreeSize[v]
	}
	if total != len(pts) {
		t.Errorf("subtree sizes sum to %d, want %d", total, len(pts))
	}
	// Each subtree size = 1 + sum over children.
	for v := range pts {
		want := 1
		for _, c := range st.Children[v] {
			want += c.Size
		}
		if st.SubtreeSize[v] != want {
			t.Errorf("node %d subtree %d, want %d", v, st.SubtreeSize[v], want)
		}
	}
}

func TestUnclusteredSparsification(t *testing.T) {
	pts := geom.UniformDisk(40, 1.2, 33)
	env := newEnv(t, pts)
	cfg := config.Default()
	st := NewState(len(pts))
	gamma := geom.Density(pts, 1)
	call := unclusteredCall(t, cfg, env, gamma)
	res, err := Run(env, st, allNodes(len(pts)), call)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) == 0 {
		t.Fatal("survivors empty")
	}
	if len(res.Survivors) >= len(pts) {
		t.Error("dense disk must shed some nodes")
	}
	checkForest(t, st, res.Survivors, allNodes(len(pts)), nil)
}

func TestRunUChainsAndShrinks(t *testing.T) {
	pts := geom.UniformDisk(50, 1.0, 7)
	env := newEnv(t, pts)
	cfg := config.Default()
	st := NewState(len(pts))
	gamma := geom.Density(pts, 1)
	call := unclusteredCall(t, cfg, env, gamma)
	chain, err := RunU(env, st, allNodes(len(pts)), call)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != cfg.SparsifyURounds {
		t.Fatalf("chain length %d, want %d", len(chain), cfg.SparsifyURounds)
	}
	// Nested: each stage's survivors ⊆ previous.
	prev := map[int]bool{}
	for _, v := range allNodes(len(pts)) {
		prev[v] = true
	}
	for i, r := range chain {
		for _, v := range r.Survivors {
			if !prev[v] {
				t.Fatalf("stage %d survivor %d not in previous set", i, v)
			}
		}
		prev = map[int]bool{}
		for _, v := range r.Survivors {
			prev[v] = true
		}
	}
	// Density reduced (Lemma 9 asserts ≤ 3/4 Γ; allow equality slack).
	finalPts := make([]geom.Point, 0)
	for _, v := range chain[len(chain)-1].Survivors {
		finalPts = append(finalPts, pts[v])
	}
	if geom.Density(finalPts, 1) > gamma {
		t.Errorf("density grew: %d > %d", geom.Density(finalPts, 1), gamma)
	}
}

func TestFullSparsificationLevels(t *testing.T) {
	pts, cl := clumps(3, 16, 0.35)
	env := newEnv(t, pts)
	cfg := config.Default()
	st := NewState(len(pts))
	call := clusteredCall(t, cfg, env, cl, 16)
	levels, err := Full(env, st, allNodes(len(pts)), call)
	if err != nil {
		t.Fatal(err)
	}
	k := CallCount(16)
	if len(levels.Levels) != k+1 {
		t.Fatalf("levels = %d, want %d", len(levels.Levels), k+1)
	}
	// Nested chain, final density O(1) per cluster.
	for i := 1; i < len(levels.Levels); i++ {
		inPrev := map[int]bool{}
		for _, v := range levels.Levels[i-1] {
			inPrev[v] = true
		}
		for _, v := range levels.Levels[i] {
			if !inPrev[v] {
				t.Fatalf("level %d not nested", i)
			}
		}
	}
	final := levels.Final()
	counts := map[int32]int{}
	for _, v := range final {
		counts[cl[v]]++
	}
	for φ := int32(1); φ <= 3; φ++ {
		if counts[φ] < 1 {
			t.Errorf("cluster %d vanished from final level", φ)
		}
		if counts[φ] > 6 {
			t.Errorf("cluster %d final density %d not O(1)", φ, counts[φ])
		}
	}
	// Roots are exactly the final level here (fresh State).
	roots := levels.Roots(st)
	sort.Ints(roots)
	finalSorted := append([]int(nil), final...)
	sort.Ints(finalSorted)
	if len(roots) != len(finalSorted) {
		t.Fatalf("roots %v != final %v", roots, finalSorted)
	}
	for i := range roots {
		if roots[i] != finalSorted[i] {
			t.Fatalf("roots %v != final %v", roots, finalSorted)
		}
	}
}

func TestCallCount(t *testing.T) {
	tests := []struct{ gamma, want int }{
		{1, 1}, {2, 3}, {4, 5}, {16, 10}, {64, 15},
	}
	for _, tt := range tests {
		if got := CallCount(tt.gamma); got != tt.want {
			t.Errorf("CallCount(%d) = %d, want %d", tt.gamma, got, tt.want)
		}
	}
}

func TestEarlyStopPreservesRoundCounts(t *testing.T) {
	// The exact-skip optimisation must not change measured rounds.
	pts, cl := clumps(2, 6, 0.3)
	run := func(early bool) int64 {
		env := newEnv(t, pts)
		cfg := config.Default()
		cfg.EarlyStop = early
		st := NewState(len(pts))
		call := clusteredCall(t, cfg, env, cl, 8)
		if _, err := Run(env, st, allNodes(len(pts)), call); err != nil {
			t.Fatal(err)
		}
		return env.Rounds()
	}
	if a, b := run(true), run(false); a != b {
		t.Errorf("EarlyStop changed rounds: %d vs %d", a, b)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	pts, _ := clumps(1, 4, 0.2)
	env := newEnv(t, pts)
	st := NewState(len(pts))
	var bad Call
	if _, err := Run(env, st, allNodes(len(pts)), bad); err == nil {
		t.Error("invalid call must be rejected")
	}
}

func TestBatchesRecorded(t *testing.T) {
	pts, cl := clumps(1, 10, 0.25)
	env := newEnv(t, pts)
	cfg := config.Default()
	st := NewState(len(pts))
	call := clusteredCall(t, cfg, env, cl, 10)
	res, err := Run(env, st, allNodes(len(pts)), call)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, b := range st.Batches[res.BatchStart:res.BatchEnd] {
		removed += len(b.Children)
		for _, c := range b.Children {
			if !b.Sched.Member(c) {
				t.Errorf("batch child %d not a schedule member", c)
			}
		}
	}
	if removed != len(pts)-len(res.Survivors) {
		t.Errorf("batches cover %d removals, want %d", removed, len(pts)-len(res.Survivors))
	}
}

func TestDensityPerClusterNeverBelowOne(t *testing.T) {
	// Repeated sparsification keeps ≥1 node per cluster (Lemma 8's "at
	// least one element stays").
	pts, cl := clumps(4, 8, 0.3)
	env := newEnv(t, pts)
	cfg := config.Default()
	st := NewState(len(pts))
	x := allNodes(len(pts))
	for i := 0; i < 3; i++ {
		call := clusteredCall(t, cfg, env, cl, 8)
		res, err := Run(env, st, x, call)
		if err != nil {
			t.Fatal(err)
		}
		x = res.Survivors
	}
	counts := map[int32]int{}
	for _, v := range x {
		counts[cl[v]]++
	}
	for φ := int32(1); φ <= 4; φ++ {
		if counts[φ] == 0 {
			t.Errorf("cluster %d emptied", φ)
		}
	}
	_ = analysis.MaxClusterSize // keep analysis linked for symmetry with other tests
}

// checkFresh asserts that st equals NewState(n) field by field (nil and
// empty per-node child lists count as equal).
func checkFresh(t *testing.T, st *State, n int) {
	t.Helper()
	want := NewState(n)
	if !slices.Equal(st.Parent, want.Parent) {
		t.Errorf("Parent = %v, want %v", st.Parent, want.Parent)
	}
	if !slices.Equal(st.SubtreeSize, want.SubtreeSize) {
		t.Errorf("SubtreeSize = %v, want %v", st.SubtreeSize, want.SubtreeSize)
	}
	if len(st.Children) != n {
		t.Errorf("len(Children) = %d, want %d", len(st.Children), n)
	}
	for v, cs := range st.Children {
		if len(cs) != 0 {
			t.Errorf("Children[%d] = %v, want none", v, cs)
		}
	}
	if len(st.Batches) != 0 || len(st.events) != 0 || len(st.touched) != 0 {
		t.Errorf("batches=%d events=%d touched=%d, want all 0", len(st.Batches), len(st.events), len(st.touched))
	}
}

// TestStateFreeList pins the execution-scoped State free list: a released
// State comes back equal to NewState(n), nested holders never share a State,
// and a reused State reproduces a fresh State's sparsification exactly.
func TestStateFreeList(t *testing.T) {
	pts, cl := clumps(3, 12, 0.3)
	n := len(pts)
	env := newEnv(t, pts)
	cfg := config.Default()

	outer := AcquireState(env)
	checkFresh(t, outer, n)
	if _, err := RunU(env, outer, allNodes(n), unclusteredCall(t, cfg, env, 12)); err != nil {
		t.Fatal(err)
	}
	inner := AcquireState(env) // nested: the outer State is still held
	if inner == outer {
		t.Fatal("nested AcquireState returned the held State")
	}
	if _, err := Full(env, inner, allNodes(n), clusteredCall(t, cfg, env, cl, 12)); err != nil {
		t.Fatal(err)
	}
	if len(outer.touched) == 0 || len(inner.touched) == 0 {
		t.Fatal("sparsification touched no node; the test exercises nothing")
	}
	ReleaseState(env, inner)
	ReleaseState(env, outer)

	a := AcquireState(env)
	b := AcquireState(env)
	c := AcquireState(env)
	if a == b || a == c || b == c {
		t.Fatal("nested AcquireState returned one State twice")
	}
	if (a != outer && a != inner) || (b != outer && b != inner) {
		t.Error("released States were not reused")
	}
	for _, st := range []*State{a, b, c} {
		checkFresh(t, st, n)
	}

	// A reused State must give exactly what a fresh one gives.
	call := clusteredCall(t, cfg, env, cl, 12)
	got, err := Run(env, a, allNodes(n), call)
	if err != nil {
		t.Fatal(err)
	}
	env2 := newEnv(t, pts)
	fresh := NewState(n)
	want, err := Run(env2, fresh, allNodes(n), clusteredCall(t, cfg, env2, cl, 12))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Survivors, want.Survivors) || !slices.Equal(a.Parent, fresh.Parent) ||
		!slices.Equal(a.SubtreeSize, fresh.SubtreeSize) || len(a.Batches) != len(fresh.Batches) {
		t.Error("reused State diverged from a fresh one")
	}
	for v := range fresh.Children {
		if !slices.Equal(a.Children[v], fresh.Children[v]) {
			t.Errorf("Children[%d] = %v, want %v", v, a.Children[v], fresh.Children[v])
		}
	}
}
