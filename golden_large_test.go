package dcluster_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcluster"
)

// largeGoldenEnv gates the costly lines of large.golden: clustering at
// n=6000 and n=10000 and local broadcast at n=2000 (about two minutes on
// two cores). scripts/large_check.sh sets it.
const largeGoldenEnv = "DCLUSTER_LARGE_GOLDEN"

// largeCase is one line of large.golden: a task on the sparse engine over
// UniformDisk(n, √n/5, 1), the disk `dclust -topology disk -n <n>` builds
// with its default radius and seed.
type largeCase struct {
	task dcluster.Task
	n    int
}

// largeGoldenCases lists the lines of large.golden in file order; the first
// runs in the full tier, the rest only under largeGoldenEnv.
var largeGoldenCases = []largeCase{
	{dcluster.Clustering(), 2000},
	{dcluster.LocalBroadcast(), 2000},
	{dcluster.Clustering(), 6000},
	{dcluster.Clustering(), 10000},
}

func largeLine(t *testing.T, c largeCase) string {
	t.Helper()
	pts := dcluster.UniformDisk(c.n, math.Sqrt(float64(c.n))/5, 1)
	net, err := dcluster.NewNetwork(pts, dcluster.WithEngine(dcluster.EngineSparse))
	if err != nil {
		t.Fatalf("%s n=%d: %v", c.task.Name(), c.n, err)
	}
	res, err := net.Run(context.Background(), c.task)
	if err != nil {
		t.Fatalf("%s n=%d: %v", c.task.Name(), c.n, err)
	}
	var outcome string
	if res.Local != nil {
		outcome = fmt.Sprintf("complete=%v", res.Local.Complete(net))
	} else {
		outcome = fmt.Sprintf("clusters=%d", res.Cluster.NumClusters())
	}
	s := res.Stats
	return fmt.Sprintf("%s disk sparse n=%d seed=1 %s rounds=%d transmissions=%d deliveries=%d maxNodeTx=%d",
		c.task.Name(), c.n, outcome, s.Rounds, s.Transmissions, s.Deliveries, s.MaxNodeTx)
}

// TestGoldenLarge pins sparse-engine Results above the dense oracle's
// comfortable reach. The full tier checks the n=2000 clustering line
// against the first line of large.golden; with DCLUSTER_LARGE_GOLDEN=1 every
// line is computed and the whole file is compared (or rewritten under
// -update).
func TestGoldenLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large golden runs take seconds to minutes")
	}
	gated := os.Getenv(largeGoldenEnv) != ""
	if !gated {
		if *updateGolden {
			t.Fatalf("large.golden is rewritten only with %s=1, which computes every line", largeGoldenEnv)
		}
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", "large.golden"))
		if err != nil {
			t.Fatalf("missing golden file (run with %s=1 -update to create): %v", largeGoldenEnv, err)
		}
		want, _, _ := strings.Cut(string(raw), "\n")
		if got := largeLine(t, largeGoldenCases[0]); got != want {
			t.Errorf("results drifted from large.golden\n got: %s\nwant: %s", got, want)
		}
		return
	}
	var lines []string
	for _, c := range largeGoldenCases {
		lines = append(lines, largeLine(t, c))
	}
	goldenCompare(t, "large.golden", strings.Join(lines, "\n")+"\n")
}
