package analysis

import (
	"strings"
	"testing"

	"dcluster/internal/flat"
	"dcluster/internal/geom"
)

func TestClosePairsSimplePair(t *testing.T) {
	// Two nearby points far from a third: the pair is close, mutually
	// nearest, well separated.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.05, 0), geom.Pt(10, 10)}
	cluster := []int32{1, 1, 1}
	got := ClosePairs(pts, cluster, 8, 1, 0.25)
	if len(got) != 1 || got[0] != (ClosePair{U: 0, W: 1}) {
		t.Errorf("ClosePairs = %v, want [{0 1}]", got)
	}
}

func TestClosePairsRespectClusters(t *testing.T) {
	// Nearest neighbours in different clusters are not a close pair.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.05, 0)}
	cluster := []int32{1, 2}
	if got := ClosePairs(pts, cluster, 8, 1, 0.25); len(got) != 0 {
		t.Errorf("cross-cluster pair reported: %v", got)
	}
}

func TestClosePairsDistanceCap(t *testing.T) {
	// Points farther than 1−ε apart cannot be a close pair (condition b).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.9, 0)}
	cluster := []int32{1, 1}
	if got := ClosePairs(pts, cluster, 1000, 1, 0.25); len(got) != 0 {
		t.Errorf("distant pair reported close: %v", got)
	}
}

func TestClosePairsSeparationCondition(t *testing.T) {
	// A third point very close to u violates condition (d) for pair (u,w)
	// when it is not itself u's nearest... build: u,w at distance d and x at
	// distance d/4 from w ⇒ w's nearest is x, so (u,w) fails mutuality and
	// (w,x) is the close pair instead.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.2, 0), geom.Pt(0.25, 0)}
	cluster := []int32{1, 1, 1}
	got := ClosePairs(pts, cluster, 8, 1, 0.25)
	if len(got) != 1 || got[0] != (ClosePair{U: 1, W: 2}) {
		t.Errorf("ClosePairs = %v, want [{1 2}]", got)
	}
}

func TestClosePairsDensePresence(t *testing.T) {
	// Lemma 1.1 flavour: a dense unit ball yields at least one close pair
	// within the surrounding 5-ball.
	pts := geom.UniformDisk(60, 0.9, 21)
	cluster := make([]int32, len(pts))
	for i := range cluster {
		cluster[i] = 1
	}
	gamma := geom.Density(pts, 1)
	got := ClosePairs(pts, cluster, gamma, 1, 0.25)
	if len(got) == 0 {
		t.Fatal("dense ball must contain a close pair")
	}
}

func TestValidateClustering(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(2, 0), geom.Pt(2.4, 0)}
	c := Clustering{
		ClusterOf: []int32{1, 1, 2, 2},
		Center:    map[int32]int{1: 0, 2: 2},
	}
	if err := c.Validate(pts, 1, 0.25, true); err != nil {
		t.Errorf("valid clustering rejected: %v", err)
	}

	// Radius violation.
	bad := Clustering{ClusterOf: []int32{1, 1, 1, 1}, Center: map[int32]int{1: 0}}
	if err := bad.Validate(pts, 1, 0.25, true); err == nil {
		t.Error("radius violation not caught")
	}

	// Centre separation violation.
	close := Clustering{ClusterOf: []int32{1, 2, Unassigned, Unassigned}, Center: map[int32]int{1: 0, 2: 1}}
	if err := close.Validate(pts, 1, 0.25, false); err == nil || !strings.Contains(err.Error(), "1−ε") {
		t.Errorf("centre separation not caught: %v", err)
	}

	// Unassigned handling.
	partial := Clustering{ClusterOf: []int32{1, 1, Unassigned, Unassigned}, Center: map[int32]int{1: 0}}
	if err := partial.Validate(pts, 1, 0.25, false); err != nil {
		t.Errorf("partial clustering should pass without requireAll: %v", err)
	}
	if err := partial.Validate(pts, 1, 0.25, true); err == nil {
		t.Error("requireAll must flag unassigned points")
	}
}

// TestValidateReportsFixedCentrePair repeats Validate on a clustering whose
// six centres are all closer than 1−ε to each other: the report must name
// the same pair, the two lowest centre indices, on every call, whatever
// order the Center map iterates in.
func TestValidateReportsFixedCentrePair(t *testing.T) {
	var pts []geom.Point
	c := Clustering{Center: map[int32]int{}}
	for i := 0; i < 6; i++ {
		pts = append(pts, geom.Pt(0.1*float64(i), 0))
		φ := int32(20 - i) // cluster ids in the opposite order to the centres
		c.ClusterOf = append(c.ClusterOf, φ)
		c.Center[φ] = i
	}
	const want = "analysis: centres 0 and 1 at distance 0.1000 < 1−ε"
	for rep := 0; rep < 100; rep++ {
		if err := c.Validate(pts, 1, 0.25, true); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %q", rep, err, want)
		}
	}
}

func TestClustersPerUnitBall(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.1, 0), geom.Pt(0.2, 0), geom.Pt(5, 5)}
	clusterOf := []int32{1, 2, 3, 4}
	if got := ClustersPerUnitBall(pts, clusterOf); got != 3 {
		t.Errorf("ClustersPerUnitBall = %d, want 3", got)
	}
}

// TestClustersPerUnitBallAllocs checks that the check allocates a count
// that does not grow with the deployment: the CSR grid index it builds and
// the stamped cluster set are a fixed number of slices, and counting the
// clusters around each point allocates nothing per point.
func TestClustersPerUnitBallAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		pts := geom.UniformDisk(n, 4, int64(n))
		clusterOf := make([]int32, n)
		for i := range clusterOf {
			clusterOf[i] = int32(n - i) // ids up to n
		}
		clusterOf[0] = Unassigned
		return testing.AllocsPerRun(5, func() { ClustersPerUnitBall(pts, clusterOf) })
	}
	if small, large := allocs(200), allocs(800); large != small {
		t.Errorf("allocations: %v at n=200, %v at n=800; want them equal", small, large)
	}
}

func TestMaxClusterSize(t *testing.T) {
	if got := MaxClusterSize([]int32{1, 1, 2, Unassigned, 1}); got != 3 {
		t.Errorf("MaxClusterSize = %d, want 3", got)
	}
	if got := MaxClusterSize(nil); got != 0 {
		t.Errorf("empty = %d", got)
	}
}

func TestValidateLabeling(t *testing.T) {
	cluster := []int32{1, 1, 1, 2, Unassigned}
	label := []int32{1, 1, 2, 1, 99}
	if err := ValidateLabeling(cluster, label, 2, 10); err != nil {
		t.Errorf("valid labeling rejected: %v", err)
	}
	if err := ValidateLabeling(cluster, label, 1, 10); err == nil {
		t.Error("c=1 repeat not caught")
	}
	if err := ValidateLabeling(cluster, []int32{0, 1, 2, 1, 0}, 2, 10); err == nil {
		t.Error("label 0 not caught")
	}
	if err := ValidateLabeling(cluster, []int32{1, 1, 2, 11, 0}, 2, 10); err == nil {
		t.Error("label above bound not caught")
	}
}

// csr builds a small CSR adjacency from an edge list for the graph checks.
func csr(n int, edges [][2]int) *flat.Adjacency {
	var b flat.AdjacencyBuilder
	b.Reset(n)
	for _, e := range edges {
		b.Add(e[0], e[1])
	}
	a := &flat.Adjacency{}
	b.Build(a, false)
	return a
}

func TestGraphSymmetric(t *testing.T) {
	if err := GraphSymmetric(csr(2, [][2]int{{0, 1}, {1, 0}})); err != nil {
		t.Errorf("symmetric graph rejected: %v", err)
	}
	if err := GraphSymmetric(csr(2, [][2]int{{0, 1}})); err == nil {
		t.Error("asymmetric edge not caught")
	}
}

func TestMaxDegreeAdj(t *testing.T) {
	if got := MaxDegree(csr(3, [][2]int{{0, 1}, {0, 2}, {1, 0}, {2, 0}})); got != 2 {
		t.Errorf("MaxDegree = %d", got)
	}
}
