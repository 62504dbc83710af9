// Command dclust runs the paper's algorithms on generated topologies and
// prints round costs and structural statistics.
//
// Usage:
//
//	dclust -algo cluster -topology disk -n 100 -seed 42
//	dclust -algo local   -topology clumps -n 80
//	dclust -algo global  -topology strip -n 60 -length 8
//	dclust -algo leader  -topology line -n 12
//	dclust -algo cluster -topology disk -n 50000 -engine sparse
//	dclust -algo cluster -preset huge
//
// With -radius 0 (the default) the disk radius / square side auto-scales
// with n (max(2, √n/5)) so large instances keep a bounded per-unit-ball
// density instead of collapsing into one giant clique; pass an explicit
// -radius to override. -engine selects the physical-layer engine: dense
// (8·n² gain matrix, fastest at small n), sparse (grid-bucketed, linear
// memory, parallel delivery — required beyond a few thousand nodes), or
// auto (dense below 2048 nodes, sparse above).
//
// Long runs can be bounded: -timeout aborts via context cancellation,
// -max-rounds imposes a deterministic round budget (both report the partial
// statistics), and -progress N prints a live rounds/deliveries line to
// stderr every N rounds via the execution observer. -cpuprofile writes a
// CPU profile of the whole command (network build and run) for go tool
// pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"

	"dcluster"
	"dcluster/internal/analysis"
)

// awakeFilter exempts every node the fault spec ever takes down from the
// membership side of the invariant check — a node that lost rounds (and, on
// crash, its state) may legitimately miss its cluster.
func awakeFilter(spec *dcluster.FaultSpec) func(int) bool {
	if len(spec.Crashes) == 0 {
		return nil
	}
	down := map[int]bool{}
	for _, c := range spec.Crashes {
		down[c.Node] = true
	}
	return func(i int) bool { return !down[i] }
}

// preset bundles a named large-scale scenario: topology, node count and
// radius (0 = auto-scale).
type preset struct {
	topology string
	n        int
	radius   float64
}

// presets are the built-in topology scales. The sparse engine is the only
// practical choice from "large" up (the dense gain matrix would need
// ≥ 20 GB at 50k nodes).
var presets = map[string]preset{
	"small":  {topology: "disk", n: 256, radius: 0},
	"medium": {topology: "disk", n: 4096, radius: 0},
	"large":  {topology: "disk", n: 50000, radius: 0},
	"huge":   {topology: "square", n: 100000, radius: 0},
	"city":   {topology: "clumps", n: 25000, radius: 0},
}

func main() {
	var (
		algo      = flag.String("algo", "cluster", "algorithm: cluster | local | global | leader | wakeup | stats")
		topology  = flag.String("topology", "disk", "topology: disk | square | strip | clumps | line | grid")
		n         = flag.Int("n", 64, "number of nodes")
		radius    = flag.Float64("radius", 0, "disk radius / square side (0 = auto-scale with n)")
		length    = flag.Float64("length", 8, "strip length")
		seed      = flag.Int64("seed", 1, "topology seed")
		source    = flag.Int("source", 0, "source node for global broadcast")
		engine    = flag.String("engine", "auto", "SINR engine: dense | sparse | auto")
		presetF   = flag.String("preset", "", "scale preset: small | medium | large | huge | city (overrides -topology/-n/-radius)")
		quiet     = flag.Bool("q", false, "print only the result line")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit for the run (0 = none)")
		maxRounds = flag.Int64("max-rounds", 0, "deterministic round budget (0 = unlimited)")
		progress  = flag.Int64("progress", 0, "print a live progress line to stderr every N rounds (0 = off)")
		faultsF   = flag.String("faults", "", "deterministic fault spec, e.g. 'seed=7;drop=0.2@100-500;crash=3-8@50-300'")
		watchdog  = flag.Int64("watchdog", 0, "stall watchdog: abort after N rounds without a delivery or phase mark (0 = off)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
	)
	flag.Parse()
	if *cpuprof != "" {
		startProfile(*cpuprof)
	}
	defer stopProfile()

	if *presetF != "" {
		p, ok := presets[*presetF]
		if !ok {
			fatal(fmt.Errorf("unknown preset %q", *presetF))
		}
		*topology, *n, *radius = p.topology, p.n, p.radius
	}
	if *radius == 0 {
		*radius = autoRadius(*n)
	}

	pts, err := buildTopology(*topology, *n, *radius, *length, *seed)
	if err != nil {
		fatal(err)
	}
	net, err := dcluster.NewNetwork(pts, dcluster.WithEngine(dcluster.EngineKind(*engine)))
	if err != nil {
		fatal(err)
	}
	printStats := func() {
		fmt.Printf("topology=%s n=%d radius=%.2f engine=%s density=%d maxdeg=%d diameter=%d connected=%v\n",
			*topology, net.Len(), *radius, net.Engine(), net.Density(), net.MaxDegree(), net.Diameter(), net.Connected())
	}
	if !*quiet {
		printStats()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var opts []dcluster.RunOption
	if *maxRounds > 0 {
		opts = append(opts, dcluster.WithMaxRounds(*maxRounds))
	}
	var prog *progressLine
	if *progress > 0 {
		prog = &progressLine{every: *progress}
		opts = append(opts, dcluster.WithObserver(prog))
	}
	var spec dcluster.FaultSpec
	if *faultsF != "" {
		spec, err = dcluster.ParseFaultSpec(*faultsF)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, dcluster.WithFaults(spec))
	}
	if *watchdog > 0 {
		opts = append(opts, dcluster.WithStallDetector(*watchdog))
	}
	run := func(task dcluster.Task) *dcluster.Result {
		res, err := net.Run(ctx, task, opts...)
		if prog != nil {
			prog.done()
		}
		if err != nil {
			if res != nil && (errors.Is(err, dcluster.ErrRoundBudget) || errors.Is(err, dcluster.ErrStalled) ||
				errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
				fmt.Printf("%s aborted: %v (rounds=%d transmissions=%d deliveries=%d)\n",
					task.Name(), err, res.Stats.Rounds, res.Stats.Transmissions, res.Stats.Deliveries)
				exit(3)
			}
			if res != nil && res.Cluster != nil && errors.Is(err, dcluster.ErrInvariant) {
				// Expected degradation under fault injection: report exactly
				// which invariants broke, exempting crashed nodes.
				rep := analysis.CheckClustering(net.Positions(),
					analysis.Clustering{ClusterOf: res.Cluster.ClusterOf, Center: res.Cluster.Center},
					1.0, net.Params().Eps, awakeFilter(&spec))
				fmt.Printf("%s degraded: clustering invariant violated (%s; rounds=%d)\n",
					task.Name(), rep.String(), res.Stats.Rounds)
				exit(4)
			}
			fatal(err)
		}
		return res
	}

	switch *algo {
	case "stats":
		// Topology-only mode: the structural line above is the output (with
		// -q, print it here since the header was suppressed).
		if *quiet {
			printStats()
		}
	case "cluster":
		res := run(dcluster.Clustering())
		fmt.Printf("cluster: clusters=%d rounds=%d transmissions=%d maxNodeTx=%d\n",
			res.Cluster.NumClusters(), res.Stats.Rounds, res.Stats.Transmissions, res.Stats.MaxNodeTx)
		if !*quiet {
			fmt.Println("stats:", net.ClusterStats(res.Cluster))
		}
	case "local":
		res := run(dcluster.LocalBroadcast())
		fmt.Printf("local-broadcast: complete=%v rounds=%d transmissions=%d\n",
			res.Local.Complete(net), res.Stats.Rounds, res.Stats.Transmissions)
	case "global":
		res := run(dcluster.GlobalBroadcast(*source))
		fmt.Printf("global-broadcast: coverage=%.2f phases=%d rounds=%d\n",
			res.Broadcast.Coverage(), len(res.Broadcast.PhaseTrace), res.Stats.Rounds)
	case "leader":
		res := run(dcluster.ElectLeader())
		fmt.Printf("leader: node=%d id=%d probes=%d rounds=%d\n",
			res.Leader.Leader, res.Leader.LeaderID, res.Leader.Probes, res.Stats.Rounds)
	case "wakeup":
		spont := make([]int64, net.Len())
		for i := range spont {
			spont[i] = -1
		}
		spont[*source] = 0
		res := run(dcluster.WakeUp(spont))
		all := true
		for _, r := range res.Wake.AwakeRound {
			if r < 0 {
				all = false
			}
		}
		fmt.Printf("wakeup: all-awake=%v epochs=%d rounds=%d\n", all, res.Wake.Epochs, res.Stats.Rounds)
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
}

// progressLine is the -progress observer: a live rounds/deliveries line on
// stderr, cleared before phase marks and the final result line.
type progressLine struct {
	every      int64
	deliveries int64
	active     bool
}

// OnRound implements dcluster.Observer.
func (p *progressLine) OnRound(round int64, _, deliveries int) {
	p.deliveries += int64(deliveries)
	if round%p.every == 0 {
		fmt.Fprintf(os.Stderr, "\rround %-12d deliveries %-12d", round, p.deliveries)
		p.active = true
	}
}

// OnPhase implements dcluster.Observer.
func (p *progressLine) OnPhase(label string, round int64) {
	p.clear()
	fmt.Fprintf(os.Stderr, "phase %s @ round %d\n", label, round)
}

// done clears any in-flight progress line once the run finishes.
func (p *progressLine) done() { p.clear() }

func (p *progressLine) clear() {
	if p.active {
		fmt.Fprintf(os.Stderr, "\r%-50s\r", "")
		p.active = false
	}
}

// autoRadius scales the deployment area with n so the expected per-unit-ball
// density stays bounded (≈ n/r² = 25): r = max(2, √n/5). For the historical
// n ≤ 100 examples this matches the old fixed default of 2.
func autoRadius(n int) float64 {
	r := math.Sqrt(float64(n)) / 5
	if r < 2 {
		r = 2
	}
	return r
}

func buildTopology(kind string, n int, radius, length float64, seed int64) ([]dcluster.Point, error) {
	switch kind {
	case "disk":
		return dcluster.UniformDisk(n, radius, seed), nil
	case "square":
		return dcluster.UniformSquare(n, radius, seed), nil
	case "strip":
		return dcluster.ConnectedStrip(n, length, 1, 0.7, seed), nil
	case "clumps":
		clumps, stddev := 4, 0.3
		if n > 1024 {
			// Scale clump count with n and widen the spread so clumps stay
			// at a simulable density and overlap into one component.
			clumps = n / 256
			stddev = 1.5
		}
		return dcluster.GaussianClusters(n, clumps, radius*2, stddev, seed), nil
	case "line":
		return dcluster.LinePath(n, 0.7), nil
	case "grid":
		k := 1
		for k*k < n {
			k++
		}
		return dcluster.GridLattice(k, 0.6, 0.05, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dclust:", err)
	exit(1)
}

// stopProfile ends the -cpuprofile profile, if one is being written.
var stopProfile = func() {}

// startProfile starts writing a CPU profile to path.
func startProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal(err)
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dclust:", err)
		}
		stopProfile = func() {}
	}
}

// exit ends the command with code, finishing the CPU profile first.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}
