package dcluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dcluster"
)

// Golden pins for faulted executions: every kind of injected fault (drops,
// noise spikes, jammers, crashes, sleep with drops) under each task family,
// on both engines. A faulted run may end in a typed degradation
// (ErrInvariant, ErrStalled, ErrRoundBudget); the outcome class, the Stats
// and a digest of the task's per-node output are pinned either way. Re-pin
// deliberately with `go test -run TestGoldenFaults -update`.

var goldenFaultSpecs = []struct{ name, spec string }{
	{"drop", "seed=31;drop=0.2"},
	{"noise", "seed=32;noise=3@1-6000"},
	{"jam", "seed=33;jam=0,0,6@1-4000"},
	{"crash", "seed=34;crash=2-5@200-;crash=9@1-3000"},
	{"sleep+drop", "seed=35;sleep=3-8@100-2500;drop=0.1@1-20000"},
}

type goldenFaultTask struct {
	name string
	pts  []dcluster.Point
	task dcluster.Task
}

// goldenFaultTasks pairs each task family with the instance it runs on:
// clustering and local broadcast on dense clumps, global broadcast on a
// connected strip (so that coverage loss is the faults' doing).
func goldenFaultTasks() []goldenFaultTask {
	clumps := dcluster.GaussianClusters(48, 4, 3.6, 0.3, 5)
	strip := dcluster.ConnectedStrip(48, 8, 1, 0.7, 7)
	return []goldenFaultTask{
		{"clustering", clumps, dcluster.Clustering()},
		{"local", clumps, dcluster.LocalBroadcast()},
		{"global", strip, dcluster.GlobalBroadcast(0)},
	}
}

// resultDigest hashes a Result's per-node output: cluster assignment,
// labels and heard pairs (local broadcast), awake phases and rounds
// (global broadcast), and the phase marks.
func resultDigest(res *dcluster.Result) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putCluster := func(c *dcluster.ClusterResult) {
		if c == nil {
			put(-1)
			return
		}
		for _, id := range c.ClusterOf {
			put(int64(id))
		}
		ids := make([]int32, 0, len(c.Center))
		for id := range c.Center {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			put(int64(id))
			put(int64(c.Center[id]))
		}
	}
	putCluster(res.Cluster)
	if l := res.Local; l != nil {
		putCluster(l.Clustering)
		for _, lab := range l.Label {
			put(int64(lab))
		}
		var pairs [][2]int
		for u, vs := range l.Heard {
			for v, ok := range vs {
				if ok {
					pairs = append(pairs, [2]int{u, v})
				}
			}
		}
		slices.SortFunc(pairs, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		for _, p := range pairs {
			put(int64(p[0]))
			put(int64(p[1]))
		}
	}
	if b := res.Broadcast; b != nil {
		for i := range b.AwakeRound {
			put(int64(b.AwakePhase[i]))
			put(b.AwakeRound[i])
		}
	}
	for _, m := range res.Marks {
		h.Write([]byte(m.Label))
		put(m.Round)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// outcomeClass names a faulted run's typed outcome.
func outcomeClass(err error) (string, bool) {
	switch {
	case err == nil:
		return "ok", true
	case errors.Is(err, dcluster.ErrInvariant):
		return "invariant", true
	case errors.Is(err, dcluster.ErrStalled):
		return "stalled", true
	case errors.Is(err, dcluster.ErrRoundBudget):
		return "budget", true
	}
	return "", false
}

func TestGoldenFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted goldens run full protocol executions")
	}
	var lines []string
	for _, tk := range goldenFaultTasks() {
		for _, fs := range goldenFaultSpecs {
			spec, err := dcluster.ParseFaultSpec(fs.spec)
			if err != nil {
				t.Fatalf("%s: %v", fs.name, err)
			}
			var pinned []string
			for _, kind := range []dcluster.EngineKind{dcluster.EngineDense, dcluster.EngineSparse} {
				net, err := dcluster.NewNetwork(tk.pts, dcluster.WithEngine(kind))
				if err != nil {
					t.Fatal(err)
				}
				res, err := net.Run(context.Background(), tk.task,
					dcluster.WithFaults(spec), dcluster.WithStallDetector(5_000_000), dcluster.WithMaxRounds(50_000_000))
				class, ok := outcomeClass(err)
				if !ok || res == nil {
					t.Fatalf("%s/%s/%s: unexpected failure: %v", tk.name, fs.name, kind, err)
				}
				s := res.Stats
				pinned = append(pinned, fmt.Sprintf("%s %s %s n=%d outcome=%s rounds=%d transmissions=%d deliveries=%d maxNodeTx=%d digest=%s",
					tk.name, fs.name, kind, len(tk.pts), class,
					s.Rounds, s.Transmissions, s.Deliveries, s.MaxNodeTx, resultDigest(res)))
			}
			// Engine equivalence first, as in TestGoldenClustering.
			if a, b := strings.Replace(pinned[0], " dense ", " ", 1), strings.Replace(pinned[1], " sparse ", " ", 1); a != b {
				t.Fatalf("engine divergence under faults:\n  %s\n  %s", pinned[0], pinned[1])
			}
			lines = append(lines, pinned...)
		}
	}
	goldenCompare(t, "faults.golden", strings.Join(lines, "\n")+"\n")
}
