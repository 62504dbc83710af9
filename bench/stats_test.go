package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(n=4).
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{0.2, 0.25, 0.21, 0.3, 0.22}, 0.22, 0.205, 0.275},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if got := median(c.xs); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("tail of 10 samples reported a percentile")
	}
	for _, c := range []struct{ n, pct int }{{11, 9}, {20, 50}, {100, 90}} {
		pct, v, ok := tail(seq(c.n))
		if !ok || pct != c.pct || v != float64(c.n-10) {
			t.Errorf("tail(%d samples) = p%d %v %v, want p%d %v", c.n, pct, v, ok, c.pct, c.n-10)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "run_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name           string
		parent, change []float64
		m              metricSpec
		want           string
	}{
		{"faster", steady, scale(steady, 0.8), lower, "better"},
		{"slower beyond bound", steady, scale(steady, 1.15), lower, "worse"},
		{"slower within bound", steady, scale(steady, 1.05), lower, "same"},
		{"unchanged", steady, steady, lower, "same"},
		{"noisy parent", noisy, scale(noisy, 1.02), lower, "unresolved"},
		{"higher is better", steady, scale(steady, 1.2), higher, "better"},
		{"higher, dropped", steady, scale(steady, 0.85), higher, "worse"},
		// Eight of ten pairs won is short of nine tenths.
		{"too few wins", steady, append(scale(steady[:8], 0.8), 1.02, 1.01), lower, "same"},
		{"too few pairs", steady[:9], scale(steady[:9], 0.8), lower, "same"},
	} {
		if got := judge(c.parent, c.change, c.m).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	rounds := metricSpec{Name: "sim_rounds", Unit: "rounds", Better: "lower", Bound: 0.1}
	if got := judge([]float64{100, 200}, []float64{100, 201}, rounds).verdict; got != "moved" {
		t.Errorf("one more round in one pair: verdict %q, want moved", got)
	}
	if got := judge([]float64{100, 200}, []float64{100, 200}, rounds).verdict; got != "same" {
		t.Errorf("identical rounds: verdict %q, want same", got)
	}
}

func TestCompareFlagsRegressionAndUnpairedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS []float64, seeds []int64) string {
		var buf bytes.Buffer
		for i, v := range runS {
			rec := record{
				detail: detail{Workload: "cluster-disk-256", Seed: seeds[i]},
				result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"run_s": {v, "s"}}},
			}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	seeds := []int64{1, 2, 3, 4}
	parent := write("parent", []float64{1, 1.01, 0.99, 1}, seeds)
	slower := write("slower", []float64{1.2, 1.21, 1.19, 1.2}, seeds)

	var out bytes.Buffer
	if err := compare(spec, parent, parent, &out); err != nil {
		t.Fatalf("parent vs itself: %v", err)
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("parent vs itself printed no 'same' verdict:\n%s", out.String())
	}
	if err := compare(spec, parent, slower, &out); !errors.Is(err, errRegression) {
		t.Errorf("20%% slower change: err = %v, want errRegression", err)
	}
	if err := compare(spec, parent, write("short", []float64{1, 1}, seeds), &out); err == nil {
		t.Error("unequal run counts were compared")
	}
	if err := compare(spec, parent, write("reseeded", []float64{1, 1, 1, 1}, []int64{1, 2, 3, 5}), &out); err == nil {
		t.Error("pairs with different seeds were compared")
	}
}
