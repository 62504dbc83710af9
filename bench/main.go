// Command bench is the repository's benchmark: four workloads run through
// the public dcluster API with their outputs checked, reporting end-to-end
// metrics from untraced runs and per-layer metrics from separate traced runs.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	    one workload in this process; the last line of standard output is
//	    its result as JSON
//	bench -seed <n> [-out <file>] [-reverse]
//	    every workload, each trace mode in its own child process, printed as
//	    a table and appended to <file> as JSON lines
//	bench -compare <parent file> <change file>
//	    paired comparison of two sets of full passes under BENCHMARK.json's
//	    bounds
//
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the instances and fault coins")
	seconds := fs.Float64("seconds", 10, "measuring time of one workload in one trace mode")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
	spans := fs.String("spans", "", "write the traced runs' spans as JSON to this file (one file per workload in a full pass)")
	out := fs.String("out", "", "full pass: append one JSON record per workload and trace mode to this file")
	reverse := fs.Bool("reverse", false, "full pass: run the workloads in reverse order")
	cmp := fs.Bool("compare", false, "compare two files written by -out: -compare <parent> <change>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files: parent and change")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	case *name == "":
		return fullPass(passOptions{seed: *seed, seconds: *seconds, spans: *spans, out: *out, reverse: *reverse}, stdout, stderr)
	}

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *spans != "" && opt.trace {
		opt.spans = &spanLog{path: *spans, seed: *seed}
	}
	d, res, err := measure(w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if opt.spans != nil {
		if err := opt.spans.write(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, e := range d.Errors {
		fmt.Fprintln(stderr, "bench: failed:", e)
	}
	for _, v := range []any{d, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// record is one workload's invocation as a full pass stores it: its detail
// line and its result line, merged.
type record struct {
	detail
	result
}

type passOptions struct {
	seed       int64
	seconds    float64
	spans, out string
	reverse    bool
}

// fullPass runs every workload, untraced then traced, each in a child
// process of this executable, one at a time.
func fullPass(o passOptions, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	order := slices.Clone(workloads)
	if o.reverse {
		slices.Reverse(order)
	}
	var sink io.Writer = io.Discard
	var outFile *os.File
	if o.out != "" {
		f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		sink, outFile = f, f
	}
	status := 0
	for _, w := range order {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
			if o.spans != "" && trace == "1" {
				args = append(args, "-spans", o.spans+"."+w.name+".json")
			}
			rec, err := runChild(exec.Command(exe, args...), stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s -trace %s: %v\n", w.name, trace, err)
				status = 1
				continue
			}
			printRecord(stdout, rec)
			line, err := json.Marshal(rec)
			if err == nil {
				_, err = fmt.Fprintf(sink, "%s\n", line)
			}
			if err != nil {
				fmt.Fprintln(stderr, "bench: -out:", err)
				return 1
			}
			if !rec.Correct || rec.Failed > 0 {
				status = 1
			}
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(stderr, "bench: -out:", err)
			return 1
		}
	}
	return status
}

// runChild runs one single-workload invocation and parses its last two
// lines. A child that reports incorrect outputs exits 1 but still prints its
// record, which is returned.
func runChild(cmd *exec.Cmd, stderr io.Writer) (record, error) {
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		if runErr == nil {
			runErr = fmt.Errorf("printed %d lines, want a detail and a result line", len(lines))
		}
		return record{}, runErr
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec.detail); err != nil {
		return record{}, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
		return record{}, fmt.Errorf("result line: %w", err)
	}
	return rec, nil
}

func printRecord(w io.Writer, rec record) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, nproc %d, GOMAXPROCS %d, %d instances, %d samples)\n",
		rec.Workload, mode, rec.Seed, rec.Nproc, rec.Gomaxprocs, rec.Instances, rec.Samples)
	for _, name := range slices.Sorted(maps.Keys(rec.Metrics)) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if !rec.Trace {
		fmt.Fprintf(w, "  %-40s %.6g .. %.6g s, p%d %.6g s\n", "run_s quartiles, tail", rec.RunQ1, rec.RunQ3, rec.RunTailPct, rec.RunTail)
	}
	fmt.Fprintf(w, "  %-40s %16.6g (%d of %d runs)\n", "failed_frac", rec.FailedFrac, rec.Failed, rec.Attempted)
}
