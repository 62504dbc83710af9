// Package dcluster is a Go implementation of "Deterministic Digital
// Clustering of Wireless Ad Hoc Networks" (Jurdziński, Kowalski, Różański,
// Stachowiak — PODC 2018): deterministic distributed clustering, local
// broadcast, global broadcast, wake-up and leader election for ad hoc
// wireless networks under the pure SINR model — no randomization, no
// location information, no carrier sensing.
//
// The package bundles a synchronous SINR simulator, the combinatorial
// selector families the algorithms are built from (strongly selective
// families, witnessed strong selectors, witnessed cluster-aware strong
// selectors), the full algorithm stack of the paper, the baselines its
// comparison tables cite, and the Theorem 6 lower-bound gadgets.
//
// # Physical-layer engines
//
// Two interchangeable SINR engines back the simulator:
//
//   - The dense engine (EngineDense) precomputes the full 8·n² gain matrix:
//     fastest per-round at small n, memory-bound beyond a few thousand nodes.
//   - The sparse engine (EngineSparse) stores positions only, buckets
//     transmitters into a spatial grid, truncates far-field interference
//     behind a conservative bound, and parallelises delivery across
//     listeners: linear memory, scales to 100k+ nodes.
//
// Both produce identical reception sets; EngineAuto (the default) picks
// dense below SparseAutoThreshold (2048) nodes and sparse above.
//
// # Execution model
//
// Every algorithm is a Task executed by Network.Run as one fresh
// synchronous execution:
//
//	pts := dcluster.UniformDisk(100, 3, 42)
//	net, err := dcluster.NewNetwork(pts)
//	if err != nil { ... }
//	res, err := net.Run(ctx, dcluster.Clustering())
//	// res.Cluster.ClusterOf[i] is node i's cluster;
//	// res.Stats.Rounds the SINR round cost.
//
// The available tasks mirror the paper's theorems: Clustering (Thm 1),
// LocalBroadcast (Thm 2), GlobalBroadcast / MultiSourceBroadcast (Thm 3),
// WakeUp (Thm 4) and ElectLeader (Thm 5).
//
// Run accepts a context (cancellation is checked at round boundaries), a
// deterministic round budget (WithMaxRounds, typed ErrRoundBudget with
// partial Stats on exhaustion) and an Observer (WithObserver, per-round and
// per-phase callbacks):
//
//	res, err := net.Run(ctx, dcluster.GlobalBroadcast(0),
//		dcluster.WithMaxRounds(100_000),
//		dcluster.WithObserver(dcluster.ObserverFuncs{
//			Round: func(round int64, tx, deliveries int) { ... },
//		}))
//
// A Network is safe for concurrent Run calls: the engine's model data is
// shared immutably, and each run borrows a pooled per-run engine session.
//
// For large instances, force the sparse engine:
//
//	net, err := dcluster.NewNetwork(pts, dcluster.WithEngine(dcluster.EngineSparse))
package dcluster

import (
	"fmt"
	"sync"

	"dcluster/internal/analysis"
	"dcluster/internal/config"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// Point is a location in the plane.
type Point = geom.Point

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Params are the SINR model parameters (α, β, noise, power, ε).
type Params = sinr.Params

// DefaultParams returns α = 3, β = 2, noise = 1, P = β·noise (transmission
// range exactly 1) and ε = 0.25.
func DefaultParams() Params { return sinr.DefaultParams() }

// Config carries the protocol constants (κ, ρ, selector factors, loop
// budgets). See the package documentation of internal/config for the
// meaning of each knob.
type Config = config.Config

// DefaultConfig returns the calibrated constants used by the test suite.
func DefaultConfig() Config { return config.Default() }

// TheoreticalConfig returns paper-faithful worst-case constants (slow).
func TheoreticalConfig(p Params) Config { return config.Theoretical(p) }

// Topology generators, re-exported for convenience.
var (
	// UniformDisk scatters n points uniformly in a disk of a given radius.
	UniformDisk = geom.UniformDisk
	// UniformSquare scatters n points uniformly in a square of a given side.
	UniformSquare = geom.UniformSquare
	// ConnectedStrip builds a connected multi-hop strip (length, height).
	ConnectedStrip = geom.ConnectedStrip
	// GaussianClusters builds clumpy deployments (n, clumps, side, stddev).
	GaussianClusters = geom.GaussianClusters
	// LinePath places n points on a line with fixed spacing.
	LinePath = geom.LinePath
	// GridLattice places points on a jittered lattice.
	GridLattice = geom.GridLattice
)

// EngineKind selects the physical-layer engine backing a Network.
type EngineKind string

// Engine kinds. EngineAuto picks EngineDense below SparseAutoThreshold nodes
// (fastest per-round, 8·n² memory) and EngineSparse at or above it (linear
// memory, grid-bucketed parallel delivery). Both engines produce identical
// reception sets.
const (
	EngineAuto   EngineKind = "auto"
	EngineDense  EngineKind = "dense"
	EngineSparse EngineKind = "sparse"
)

// SparseAutoThreshold is the node count at which EngineAuto switches from
// the dense gain-matrix engine to the sparse grid engine. Retuned after the
// sparse engine's small rounds (up to 48 transmitters) moved to a direct
// scan certified in the squared-distance domain. End-to-end clustering
// (dclust -algo cluster, 2 vCPUs, interleaved runs, identical outputs):
// dense 2.5–2.9 s vs sparse 3.6–3.8 s at n = 1024, a tie at n = 1536
// (6.7–6.9 s both), sparse 9.5–10.4 s vs dense 11.4–12.4 s at n = 2048
// (the sparse engine took 12.3 s there before the change), and sparse
// 35–39 s vs dense 59–82 s at n = 4096. The crossover dropped from ~3k to
// ~1.5–2k nodes.
const SparseAutoThreshold = 2048

// Network is a static wireless network instance: node positions, the SINR
// engine, protocol configuration and ID assignment. All algorithm entry
// points run on a fresh synchronous execution and report their own round
// costs. The Network itself is immutable after construction and safe for
// concurrent Run calls: the engine's model data is shared, while each run
// borrows a per-run engine session from an internal pool.
type Network struct {
	pts    []Point
	params Params
	cfg    Config
	engine EngineKind
	field  sinr.Engine
	ids    []int
	idcap  int

	sessions    sync.Pool // per-run engine sessions (sinr.Engine)
	densityOnce sync.Once
	density     int
}

// Option customises NewNetwork.
type Option func(*Network)

// WithParams overrides the SINR parameters.
func WithParams(p Params) Option { return func(n *Network) { n.params = p } }

// WithConfig overrides the protocol constants.
func WithConfig(c Config) Option { return func(n *Network) { n.cfg = c } }

// WithIDs assigns explicit protocol IDs (unique, in [1..idBound]). The
// assignment is validated by NewNetwork, which fails fast on duplicate or
// out-of-range IDs instead of deferring the error to the first run.
func WithIDs(ids []int, idBound int) Option {
	return func(n *Network) {
		n.ids = append([]int(nil), ids...)
		n.idcap = idBound
	}
}

// validateIDs checks the WithIDs assignment (length, range, uniqueness,
// int32 representability — message wire format carries IDs as int32)
// against the same validator every run's environment applies. Failures are
// ErrBadOption-family: errors.Is(err, ErrBadOption) holds.
func (n *Network) validateIDs() error {
	if n.ids == nil {
		return nil
	}
	if _, err := sim.ValidateIDs(n.ids, len(n.pts), n.idcap); err != nil {
		return fmt.Errorf("%w: invalid WithIDs assignment: %v", ErrBadOption, err)
	}
	return nil
}

// WithEngine selects the physical-layer engine (EngineAuto, EngineDense or
// EngineSparse).
func WithEngine(kind EngineKind) Option { return func(n *Network) { n.engine = kind } }

// NewNetwork builds a network over the given node positions.
func NewNetwork(pts []Point, opts ...Option) (*Network, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("dcluster: empty point set")
	}
	n := &Network{
		pts:    append([]Point(nil), pts...),
		params: DefaultParams(),
		cfg:    DefaultConfig(),
		engine: EngineAuto,
	}
	for _, o := range opts {
		o(n)
	}
	if err := n.params.Validate(); err != nil {
		return nil, err
	}
	if err := n.cfg.Validate(); err != nil {
		return nil, err
	}
	if err := n.validateIDs(); err != nil {
		return nil, err
	}
	kind := n.engine
	if kind == EngineAuto || kind == "" {
		if len(n.pts) >= SparseAutoThreshold {
			kind = EngineSparse
		} else {
			kind = EngineDense
		}
	}
	switch kind {
	case EngineDense:
		f, err := sinr.NewField(n.params, n.pts)
		if err != nil {
			return nil, err
		}
		n.field = f
	case EngineSparse:
		f, err := sinr.NewSparseField(n.params, n.pts)
		if err != nil {
			return nil, err
		}
		n.field = f
	default:
		return nil, fmt.Errorf("dcluster: unknown engine %q", n.engine)
	}
	n.engine = kind
	return n, nil
}

// Engine returns the resolved engine kind backing this network (never
// EngineAuto).
func (n *Network) Engine() EngineKind { return n.engine }

// acquireEngine borrows a per-run engine session from the pool (creating
// one if none is idle). Sessions share the immutable model data but own
// their per-round scratch, so concurrent runs never contend.
func (n *Network) acquireEngine() sinr.Engine {
	if v := n.sessions.Get(); v != nil {
		return v.(sinr.Engine)
	}
	return n.field.Session()
}

// releaseEngine returns a session to the pool for reuse by later runs.
func (n *Network) releaseEngine(e sinr.Engine) { n.sessions.Put(e) }

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.pts) }

// Positions returns a copy of the node positions.
func (n *Network) Positions() []Point { return append([]Point(nil), n.pts...) }

// Params returns the SINR parameters.
func (n *Network) Params() Params { return n.params }

// Density returns the network density Γ: the maximum number of nodes in a
// unit ball (node-centred). The value is computed once and cached (the
// positions are immutable), so repeated and concurrent runs share it.
func (n *Network) Density() int {
	n.densityOnce.Do(func() { n.density = geom.Density(n.pts, 1) })
	return n.density
}

// MaxDegree returns the maximum degree of the communication graph.
func (n *Network) MaxDegree() int { return geom.MaxDegree(n.pts, n.params.GraphRadius()) }

// Diameter returns (an estimate of) the hop diameter of the communication
// graph.
func (n *Network) Diameter() int { return geom.Diameter(n.pts, n.params.GraphRadius()) }

// Connected reports whether the communication graph is connected.
func (n *Network) Connected() bool { return geom.Connected(n.pts, n.params.GraphRadius()) }

// CommGraph returns the communication graph adjacency lists.
func (n *Network) CommGraph() [][]int { return geom.CommGraph(n.pts, n.params.GraphRadius()) }

// allNodes returns 0..n−1.
func (n *Network) allNodes() []int {
	out := make([]int, len(n.pts))
	for i := range out {
		out[i] = i
	}
	return out
}

// validateClustering checks the 1-clustering conditions on an assignment.
func (n *Network) validateClustering(clusterOf []int32, center map[int32]int, r float64) error {
	c := analysis.Clustering{ClusterOf: clusterOf, Center: center}
	return c.Validate(n.pts, r, n.params.Eps, true)
}
