package dcluster_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcluster"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// Golden-file regression tests: the clustering outcome (cluster count,
// round count, transmission totals, per-node energy) is pinned per topology
// and per engine. The protocol is deterministic and the engines are
// byte-identical by construction, so any drift in these numbers — however
// plausible-looking — is a behaviour change that must be reviewed and
// explicitly re-pinned with `go test -run TestGoldenClustering -update`.

type goldenCase struct {
	name string
	pts  []dcluster.Point
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"disk", dcluster.UniformDisk(400, 4, 42)},
		{"line", dcluster.LinePath(200, 0.45)},
		{"clumps", dcluster.GaussianClusters(300, 5, 10, 0.6, 7)},
		{"grid", dcluster.GridLattice(16, 0.8, 0.05, 3)},
	}
}

func clusterLine(t *testing.T, tc goldenCase, engine dcluster.EngineKind, label string) string {
	t.Helper()
	net, err := dcluster.NewNetwork(tc.pts, dcluster.WithEngine(engine))
	if err != nil {
		t.Fatalf("%s/%s: %v", tc.name, label, err)
	}
	res, err := net.Run(context.Background(), dcluster.Clustering())
	if err != nil {
		t.Fatalf("%s/%s: %v", tc.name, label, err)
	}
	s := res.Stats
	return fmt.Sprintf("%s %s n=%d clusters=%d rounds=%d transmissions=%d deliveries=%d maxNodeTx=%d",
		tc.name, label, len(tc.pts), res.Cluster.NumClusters(),
		s.Rounds, s.Transmissions, s.Deliveries, s.MaxNodeTx)
}

func TestGoldenClustering(t *testing.T) {
	if testing.Short() {
		t.Skip("golden clustering runs full protocol executions")
	}
	var lines []string
	for _, tc := range goldenCases() {
		dense := clusterLine(t, tc, dcluster.EngineDense, "dense")
		sparse := clusterLine(t, tc, dcluster.EngineSparse, "sparse")
		// Engine equivalence first: everything after the engine label must
		// match exactly, or the golden file would pin a divergence.
		if trim := func(s string) string {
			_, rest, _ := strings.Cut(s, " ")
			_, rest, _ = strings.Cut(rest, " ")
			return rest
		}; trim(dense) != trim(sparse) {
			t.Fatalf("engine divergence on %s:\n  %s\n  %s", tc.name, dense, sparse)
		}
		lines = append(lines, dense, sparse)
	}
	goldenCompare(t, "clustering.golden", strings.Join(lines, "\n")+"\n")
}

// goldenCompare checks got against testdata/golden/name, or rewrites the
// file under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("results drifted from golden file %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
