package sinr

import "dcluster/internal/geom"

// Engine is the physical-medium abstraction shared by every simulator layer:
// a fixed set of nodes whose pairwise received powers follow the SINR model.
// Deliver is its one reception query: it answers "who received whom" for a
// whole round's transmitter set.
//
// Two implementations exist:
//
//   - Field precomputes the dense 8·n² gain matrix. O(1) gain lookups and the
//     fastest per-round Deliver at small n, but memory-bound: a few thousand
//     nodes is the practical ceiling. It is also the only engine that accepts
//     an explicit distance matrix (NewFieldFromDistances), which the
//     lower-bound gadgets require.
//
//   - SparseField stores positions only and computes gains lazily through a
//     spatial grid, truncating negligible far-field interference behind a
//     conservative aggregate bound and parallelising Deliver across
//     listeners. Linear memory; scales to hundreds of thousands of nodes.
//
// Both engines implement the same reception semantics (Eq. 1 with the β > 1
// strongest-signal rule); for any transmitter set they produce identical
// reception sets.
type Engine interface {
	// N returns the number of nodes.
	N() int
	// Params returns the SINR model parameters.
	Params() Params
	// Positions returns the node positions, or nil for distance-matrix
	// fields.
	Positions() []geom.Point
	// Gain returns the received power at u from a transmission by v
	// (0 for v == u).
	Gain(v, u int) float64
	// Distance returns the metric distance between v and u.
	Distance(v, u int) float64
	// Deliver computes all successful receptions for one synchronous round
	// with the given transmitter set, appending to dst. listeners selects
	// which non-transmitting nodes are checked (nil = all nodes).
	Deliver(transmitters []int, listeners []int, dst []Reception) []Reception
	// Session returns an engine view over the same nodes that shares the
	// immutable model data (positions, gains, grid geometry) but owns its
	// per-round scratch state. Sessions of one engine may call Deliver
	// concurrently with each other; a single session is confined to one
	// execution at a time, like the engine itself.
	Session() Engine
	// CommGraph returns adjacency lists of the communication graph: edges
	// between nodes at distance ≤ (1−ε)·range.
	CommGraph() [][]int
}

// Compile-time checks that both engines satisfy the interface.
var (
	_ Engine = (*Field)(nil)
	_ Engine = (*SparseField)(nil)
)

// StopChecker is implemented by engines supporting cooperative mid-round
// cancellation: Deliver calls fn periodically (every few hundred listeners)
// and aborts — by panicking with a payload AbortError recognises — as soon
// as it returns a non-nil error. The hook must be safe to call from multiple
// goroutines (the sparse engine polls it from its worker pool); a context's
// Err method is. Passing nil clears the hook. Both built-in engines
// implement it; the run layer installs the context check once per execution.
type StopChecker interface {
	SetStopCheck(fn func() error)
}

// RoundFilter is implemented by engine decorators whose receptions are the
// inner engine's fault-free receptions minus a round-dependent subset — the
// fault-injection layer. The execution environment computes (or recalls
// from its reception memo) the fault-free outcome on Unwrap() and applies
// Filter with the round number on top, so the memo holds pure physics only.
type RoundFilter interface {
	// Unwrap returns the decorated engine.
	Unwrap() Engine
	// Filter appends to dst the receptions in recs — the inner engine's
	// outcome for transmitters — that survive the faults of the given
	// round, in order. It never writes to recs.
	Filter(round int64, transmitters []int, recs, dst []Reception) []Reception
}

// deliverAbort carries a mid-round cancellation out of Deliver. Engines
// panic with it only from the caller's goroutine and only after restoring
// their scratch state (transmitter bitmaps, CSR buckets), so an aborted
// session remains valid for reuse.
type deliverAbort struct{ err error }

// AbortError returns the cancellation error carried by a recovered Deliver
// panic, or nil if the panic is not a mid-round abort.
func AbortError(r any) error {
	if a, ok := r.(deliverAbort); ok {
		return a.err
	}
	return nil
}

// abortDeliver unwinds a Deliver whose stop check tripped. Callers must have
// cleaned up their per-round scratch first.
func abortDeliver(err error) { panic(deliverAbort{err}) }

// stopStride is the listener-loop granularity of the cooperative stop check:
// one hook call every stopStride+1 iterations (the stride is a power-of-two
// mask, so the steady-state cost is one branch per listener).
const stopStride = 255

// GainAt returns the received power of a transmission over distance d under
// the model parameters — the shared path-loss formula of both engines,
// exported for the fault layer's jammer interference terms.
func GainAt(p Params, d float64) float64 { return gainAt(p, d) }

// sinrOf is the Eq. (1) reference the tests check every Deliver path
// against: the signal-to-interference-and-noise ratio at u for sender v
// given the full transmitter set txs (which must contain v).
func sinrOf(f Engine, v, u int, txs []int) float64 {
	var interference float64
	seen := false
	for _, w := range txs {
		if w == v {
			seen = true
			continue
		}
		interference += f.Gain(w, u)
	}
	if !seen {
		return 0
	}
	return f.Gain(v, u) / (f.Params().Noise + interference)
}

// receivesOf is the reference reception predicate: u receives v's message
// when txs transmit (half-duplex: false if u ∈ txs).
func receivesOf(f Engine, v, u int, txs []int) bool {
	for _, w := range txs {
		if w == u {
			return false
		}
	}
	return sinrOf(f, v, u, txs) >= f.Params().Beta
}
