package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison applies.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent,
// so the command works from the repository root and from bench/.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			err = json.Unmarshal(data, &spec)
			return spec, err
		}
	}
	return spec, err
}

// minPairs is the number of pairs a gain needs.
const minPairs = 10

// judgement is the verdict on one metric of one workload, by the pairing
// rule:
//   - better: over at least minPairs pairs, the change wins at least nine
//     tenths, ties counting for neither, and the medians differ by more
//     than the parent's interquartile distance;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unresolved: the parent's spread exceeds the bound, unless every
//     change run reads better than every parent run;
//   - same: none of these.
//
// Round counts are exact, so for a metric counted in rounds any pair that
// differs is "moved", which counts as a regression: a change to the
// simulator's speed must not change the paper's cost.
type judgement struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	verdict                       string
}

func judge(parent, change []float64, m metricSpec) judgement {
	lower := m.Better == "lower"
	better := func(a, b float64) bool { return a != b && (a < b) == lower }
	j := judgement{parentMed: median(parent), changeMed: median(change), pairs: len(parent)}
	j.parentQ1, j.parentQ3 = quartiles(parent)
	j.changeQ1, j.changeQ3 = quartiles(change)
	allBetter := true
	for i := range parent {
		if better(change[i], parent[i]) {
			j.wins++
		}
		for _, p := range parent {
			allBetter = allBetter && better(change[i], p)
		}
	}
	if m.Unit == "rounds" {
		j.verdict = "same"
		for i := range parent {
			if parent[i] != change[i] {
				j.verdict = "moved"
			}
		}
		return j
	}
	limit := j.parentMed * (1 + m.Bound)
	if !lower {
		limit = j.parentMed * (1 - m.Bound)
	}
	switch {
	case j.pairs >= minPairs && j.wins*10 >= 9*j.pairs && better(j.changeMed, j.parentMed) &&
		math.Abs(j.changeMed-j.parentMed) > j.parentQ3-j.parentQ1:
		j.verdict = "better"
	case better(limit, j.changeMed):
		j.verdict = "worse"
	case spread(parent) > m.Bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "same"
	}
	return j
}

// readRecords reads a file of full-pass records and keeps the untraced ones,
// grouped by workload in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// compareFiles pairs the i-th untraced record of each workload in the parent
// file with the i-th in the change file and judges every end-to-end metric.
// It exits 1 when a metric got worse or the change failed more runs.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err == nil {
		err = compare(spec, parentPath, changePath, stdout)
	}
	switch {
	case errors.Is(err, errRegression):
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	case err != nil:
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	return 0
}

var errRegression = errors.New("the change is worse than the parent beyond a bound, or fails more runs")

func compare(spec benchSpec, parentPath, changePath string, w io.Writer) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	regressed := false
	fmt.Fprintf(w, "%-24s %-17s %-34s %-34s %7s %9s %7s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "spread", "verdict")
	for _, wl := range workloads {
		p, c := parent[wl.name], change[wl.name]
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		if len(p) != len(c) {
			return fmt.Errorf("%s: %d parent runs but %d change runs", wl.name, len(p), len(c))
		}
		failedP, failedC := 0, 0
		for i := range p {
			if p[i].Seed != c[i].Seed {
				return fmt.Errorf("%s: pair %d has seeds %d and %d", wl.name, i, p[i].Seed, c[i].Seed)
			}
			failedP += p[i].Failed
			failedC += c[i].Failed
		}
		if failedC > failedP {
			fmt.Fprintf(w, "%-24s failed runs: parent %d, change %d\n", wl.name, failedP, failedC)
			regressed = true
		}
		for _, m := range spec.EndToEnd {
			pv, err := values(p, m.Name)
			if err != nil {
				return fmt.Errorf("%s: parent: %w", wl.name, err)
			}
			cv, err := values(c, m.Name)
			if err != nil {
				return fmt.Errorf("%s: change: %w", wl.name, err)
			}
			j := judge(pv, cv, m)
			regressed = regressed || j.verdict == "worse" || j.verdict == "moved"
			fmt.Fprintf(w, "%-24s %-17s %-34s %-34s %+6.1f%% %4d/%-4d %6.1f%%  %s (bound %.0f%%)\n",
				wl.name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.parentMed, j.parentQ1, j.parentQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.changeMed, j.changeQ1, j.changeQ3),
				100*(j.changeMed/j.parentMed-1), j.wins, j.pairs, 100*spread(pv), j.verdict, 100*m.Bound)
		}
	}
	if regressed {
		return errRegression
	}
	return nil
}

func values(recs []record, name string) ([]float64, error) {
	out := make([]float64, len(recs))
	for i, r := range recs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("run %d has no metric %s", i, name)
		}
		out[i] = m.Value
	}
	return out, nil
}
