package fault

import (
	"dcluster/internal/geom"
	"dcluster/internal/sinr"
)

// Engine decorates a physical-layer engine with the spec's engine-level
// faults. It computes the inner engine's exact reception set and then
// filters it: a reception survives only if it still clears the SINR
// threshold under the round's spiked noise and jammer interference, and its
// drop coins all land on "keep".
//
// Filtering the inner output is semantically exact, not an approximation:
// added noise and jammer interference degrade every candidate sender at a
// listener by the same additive interference term, and with β > 1 at most
// one sender — the strongest — can be received, so faults only ever remove
// receptions and never change which sender would win. Probabilistic drops
// remove receptions by definition.
//
// The decorator implements sinr.RoundFilter: the execution environment
// computes the fault-free receptions on the inner engine (or recalls them
// from its reception memo) and applies Filter with the round number.
// Deliver answers for the round of the latest Filter call; Gain, Distance
// and CommGraph describe the fault-free geometry.
type Engine struct {
	inner sinr.Engine
	spec  *Spec
	round int64
	recs  []sinr.Reception // inner Deliver scratch
}

// Wrap decorates inner with the spec's engine-level faults. The spec must
// outlive the engine; the Run layer passes a private clone.
func Wrap(inner sinr.Engine, spec *Spec) *Engine {
	return &Engine{inner: inner, spec: spec}
}

// Unwrap implements sinr.RoundFilter: the decorated engine.
func (e *Engine) Unwrap() sinr.Engine { return e.inner }

// SetStopCheck implements sinr.StopChecker by forwarding to the inner
// engine when it supports cooperative cancellation.
func (e *Engine) SetStopCheck(fn func() error) {
	if sc, ok := e.inner.(sinr.StopChecker); ok {
		sc.SetStopCheck(fn)
	}
}

// N implements sinr.Engine.
func (e *Engine) N() int { return e.inner.N() }

// Params implements sinr.Engine (the fault-free base parameters).
func (e *Engine) Params() sinr.Params { return e.inner.Params() }

// Positions implements sinr.Engine.
func (e *Engine) Positions() []geom.Point { return e.inner.Positions() }

// Gain implements sinr.Engine (fault-free pairwise gain).
func (e *Engine) Gain(v, u int) float64 { return e.inner.Gain(v, u) }

// Distance implements sinr.Engine.
func (e *Engine) Distance(v, u int) float64 { return e.inner.Distance(v, u) }

// CommGraph implements sinr.Engine (fault-free geometry).
func (e *Engine) CommGraph() [][]int { return e.inner.CommGraph() }

// Session implements sinr.Engine: a decorated view over a fresh inner
// session, sharing the spec.
func (e *Engine) Session() sinr.Engine {
	return &Engine{inner: e.inner.Session(), spec: e.spec}
}

// Deliver implements sinr.Engine: the inner engine's receptions minus
// those the faults of the latest Filter call's round take out.
func (e *Engine) Deliver(transmitters []int, listeners []int, dst []sinr.Reception) []sinr.Reception {
	e.recs = e.inner.Deliver(transmitters, listeners, e.recs[:0])
	return e.Filter(e.round, transmitters, e.recs, dst)
}

// Filter implements sinr.RoundFilter: it appends to dst the receptions in
// recs (the inner engine's outcome for transmitters) that still clear the
// SINR threshold under the round's spiked noise and jammer interference and
// whose drop coins land on "keep". The round becomes the one Deliver
// answers for.
func (e *Engine) Filter(round int64, transmitters []int, recs, dst []sinr.Reception) []sinr.Reception {
	e.round = round
	noiseF := e.spec.noiseFactorAt(round)
	jamming := e.spec.jammingAt(round)
	dropping := len(e.spec.Drops) > 0
	if noiseF == 1 && !jamming && !dropping {
		return append(dst, recs...)
	}
	p := e.inner.Params()
	var pos []geom.Point
	if jamming {
		pos = e.inner.Positions()
	}
	for _, rec := range recs {
		if noiseF > 1 || jamming {
			interference := 0.0
			for _, w := range transmitters {
				if w != rec.Sender {
					interference += e.inner.Gain(w, rec.Receiver)
				}
			}
			if jamming {
				interference += e.spec.jamGain(round, pos[rec.Receiver], p)
			}
			if e.inner.Gain(rec.Sender, rec.Receiver) < p.Beta*(noiseF*p.Noise+interference) {
				continue
			}
		}
		if dropping && !e.spec.keep(round, rec.Sender, rec.Receiver) {
			continue
		}
		dst = append(dst, rec)
	}
	return dst
}

// Compile-time checks: the decorator is a full engine with cancellation and
// a round filter.
var (
	_ sinr.Engine      = (*Engine)(nil)
	_ sinr.StopChecker = (*Engine)(nil)
	_ sinr.RoundFilter = (*Engine)(nil)
)
