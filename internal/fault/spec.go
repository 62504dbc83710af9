// Package fault is the deterministic fault-injection layer of the simulator:
// a seeded, replayable specification of adversarial conditions — probabilistic
// message drops, transient noise spikes, static and mobile jammers, and node
// crash/sleep schedules — threaded through the execution stack as an engine
// decorator (Engine) and a node-fault schedule (the sim.NodeFaults the Spec
// itself implements).
//
// Everything is a pure function of the round number and the seed: the same
// (seed, Spec) pair yields byte-identical executions on repeated runs and
// across the dense and sparse physical engines, and fault state never depends
// on whether silent stretches were fast-forwarded or stepped through one
// round at a time.
package fault

import (
	"fmt"
	"math"
	"sort"

	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// Window is a half-open round interval [From, To). Rounds are 1-based; From
// ≤ 1 means "from the start" and To = 0 means "open-ended". The zero Window
// is always active.
type Window struct {
	From, To int64
}

// Active reports whether round r falls inside the window.
func (w Window) Active(r int64) bool {
	return r >= w.From && (w.To == 0 || r < w.To)
}

func (w Window) validate() error {
	if w.From < 0 || w.To < 0 {
		return fmt.Errorf("fault: negative round in window %d-%d", w.From, w.To)
	}
	if w.To != 0 && w.To <= w.From {
		return fmt.Errorf("fault: empty window %d-%d", w.From, w.To)
	}
	return nil
}

// Drop drops each would-be reception independently with probability P during
// the window. The coin for a (round, sender, receiver) triple is a hash of
// the seed, so it does not depend on evaluation order — both engines and
// repeated runs see identical outcomes.
type Drop struct {
	P float64
	Window
}

// NoiseSpike multiplies the ambient noise N by Factor (≥ 1) during the
// window; overlapping spikes compound multiplicatively.
type NoiseSpike struct {
	Factor float64
	Window
}

// Jammer is an adversarial emitter that contributes interference at every
// listener during its window without ever being a protocol participant. It
// sits at At on the window's first round and moves with velocity Vel (units
// per round) while active.
type Jammer struct {
	At    geom.Point
	Vel   geom.Point
	Power float64
	Window
}

// positionAt returns the jammer's position at round r (call only while
// active).
func (j Jammer) positionAt(r int64) geom.Point {
	from := j.From
	if from < 1 {
		from = 1
	}
	dt := float64(r - from)
	return geom.Pt(j.At.X+j.Vel.X*dt, j.At.Y+j.Vel.Y*dt)
}

// Crash takes one node down for the window: it neither transmits nor
// receives. When the window closes the node restarts with cleared local
// state (a sim.Restart event fires at round To); a Sleep outage wakes
// without the restart — the node simply missed the traffic.
type Crash struct {
	Node int
	Window
	Sleep bool
}

// Spec is one complete fault scenario. The zero Spec injects nothing.
type Spec struct {
	// Seed drives every probabilistic choice (currently the drop coins).
	Seed uint64

	Drops   []Drop
	Noise   []NoiseSpike
	Jammers []Jammer
	Crashes []Crash
}

// Clone returns a deep copy (the Run layer clones so later mutations of the
// caller's Spec cannot race a running execution).
func (s *Spec) Clone() Spec {
	c := Spec{Seed: s.Seed}
	c.Drops = append([]Drop(nil), s.Drops...)
	c.Noise = append([]NoiseSpike(nil), s.Noise...)
	c.Jammers = append([]Jammer(nil), s.Jammers...)
	c.Crashes = append([]Crash(nil), s.Crashes...)
	return c
}

// Empty reports whether the spec injects no faults at all.
func (s *Spec) Empty() bool {
	return len(s.Drops) == 0 && len(s.Noise) == 0 && len(s.Jammers) == 0 && len(s.Crashes) == 0
}

// EngineFaults reports whether the spec perturbs the physical layer (drops,
// noise, jammers) and therefore needs the Engine decorator.
func (s *Spec) EngineFaults() bool {
	return len(s.Drops) > 0 || len(s.Noise) > 0 || len(s.Jammers) > 0
}

// HasNodeFaults reports whether the spec schedules node outages.
func (s *Spec) HasNodeFaults() bool { return len(s.Crashes) > 0 }

// Validate checks the spec against a network of n nodes. hasPositions tells
// whether the engine knows node coordinates (jammers require them).
func (s *Spec) Validate(n int, hasPositions bool) error {
	for _, d := range s.Drops {
		if d.P < 0 || d.P > 1 {
			return fmt.Errorf("fault: drop probability %v outside [0,1]", d.P)
		}
		if err := d.validate(); err != nil {
			return err
		}
	}
	for _, sp := range s.Noise {
		if sp.Factor < 1 {
			return fmt.Errorf("fault: noise factor %v < 1", sp.Factor)
		}
		if err := sp.validate(); err != nil {
			return err
		}
	}
	for _, j := range s.Jammers {
		if !hasPositions {
			return fmt.Errorf("fault: jammers need node positions (distance-matrix engine)")
		}
		if j.Power <= 0 {
			return fmt.Errorf("fault: jammer power %v must be > 0", j.Power)
		}
		if err := j.validate(); err != nil {
			return err
		}
	}
	for _, c := range s.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("fault: crash node %d outside [0,%d)", c.Node, n)
		}
		if err := c.validate(); err != nil {
			return err
		}
	}
	return nil
}

// noiseFactorAt returns the ambient-noise multiplier at round r (1 when no
// spike is active).
func (s *Spec) noiseFactorAt(r int64) float64 {
	f := 1.0
	for _, sp := range s.Noise {
		if sp.Active(r) {
			f *= sp.Factor
		}
	}
	return f
}

// jamGain returns the total jammer interference received at position p in
// round r under the model parameters. Jammer received power follows the same
// path-loss law as node transmissions, scaled to the jammer's power.
func (s *Spec) jamGain(r int64, p geom.Point, params sinr.Params) float64 {
	var total float64
	for _, j := range s.Jammers {
		if !j.Active(r) {
			continue
		}
		d := geom.Dist(j.positionAt(r), p)
		total += sinr.GainAt(params, d) * (j.Power / params.Power)
	}
	return total
}

// jammingAt reports whether any jammer is active in round r.
func (s *Spec) jammingAt(r int64) bool {
	for _, j := range s.Jammers {
		if j.Active(r) {
			return true
		}
	}
	return false
}

// keep reports whether the (sender → receiver) reception of round r survives
// every active drop window. The coin is a counter-based hash — a pure
// function of (seed, window index, round, sender, receiver) — so outcomes
// are independent of evaluation order and identical across engines. keep
// is the reference definition; Filter evaluates the same coins through
// dropCoins and kept, which hoist the per-round part of the hash.
func (s *Spec) keep(r int64, sender, receiver int) bool {
	for i, d := range s.Drops {
		if !d.Active(r) || d.P <= 0 {
			continue
		}
		if d.P >= 1 {
			return false
		}
		h := mix64(s.Seed ^ mix64(uint64(i)+0x51ed2701))
		h = mix64(h ^ uint64(r))
		h = mix64(h ^ (uint64(uint32(sender))<<32 | uint64(uint32(receiver))))
		// 53 high bits → uniform in [0,1).
		if float64(h>>11)*(1.0/(1<<53)) < d.P {
			return false
		}
	}
	return true
}

// dropKey is the part of one drop window's coin that no round changes:
// key is keep's hash of (seed, window), and keep holds for a coin whose 53
// bits are at least below = ⌈P·2⁵³⌉. That integer test is exactly keep's
// float one: for an integer k < 2⁵³, k·2⁻⁵³ is exact, and k·2⁻⁵³ < P ⇔
// k < P·2⁵³ ⇔ k < ⌈P·2⁵³⌉ (P·2⁵³ itself is exact, a power-of-two scaling).
type dropKey struct {
	key, below uint64
}

// dropKeys returns the dropKey of every drop window, in window order; the
// engine computes them once, so a round's coins cost one mix64 each.
func (s *Spec) dropKeys() []dropKey {
	keys := make([]dropKey, len(s.Drops))
	for i, d := range s.Drops {
		keys[i] = dropKey{key: mix64(s.Seed ^ mix64(uint64(i)+0x51ed2701)), below: dropBelow(d.P)}
	}
	return keys
}

// dropBelow is ⌈p·2⁵³⌉, the integer form of keep's threshold p. Only
// windows with 0 < p < 1 flip coins, for which it lies in [1, 2⁵³].
func dropBelow(p float64) uint64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// dropCoin is one drop window's coin for a fixed round: prefix is the part
// of keep's hash that depends only on (seed, window, round).
type dropCoin struct {
	prefix, below uint64
}

// dropCoins appends to dst the coin of every drop window active in round r
// with 0 < P < 1, so that each reception of the round costs one mix64 per
// window (see kept) instead of keep's four. keys are the spec's dropKeys.
// all reports that an active window has P ≥ 1, which drops every reception
// of the round.
func (s *Spec) dropCoins(r int64, keys []dropKey, dst []dropCoin) (coins []dropCoin, all bool) {
	for i, d := range s.Drops {
		if !d.Active(r) || d.P <= 0 {
			continue
		}
		if d.P >= 1 {
			return dst, true
		}
		dst = append(dst, dropCoin{prefix: mix64(keys[i].key ^ uint64(r)), below: keys[i].below})
	}
	return dst, false
}

// kept is keep for the round whose coins dropCoins returned (with all
// false).
func kept(coins []dropCoin, sender, receiver int) bool {
	pair := uint64(uint32(sender))<<32 | uint64(uint32(receiver))
	for _, c := range coins {
		if mix64(c.prefix^pair)>>11 < c.below {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer: a strong 64-bit mixing permutation used
// as the drop-coin hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Down implements sim.NodeFaults: node is unavailable in round r.
func (s *Spec) Down(node int, r int64) bool {
	for _, c := range s.Crashes {
		if c.Node == node && c.Active(r) {
			return true
		}
	}
	return false
}

// AnyDown implements sim.NodeFaults: some node is unavailable in round r
// (the environment's cue to run the per-node filter at all).
func (s *Spec) AnyDown(r int64) bool {
	for _, c := range s.Crashes {
		if c.Active(r) {
			return true
		}
	}
	return false
}

// Restarts implements sim.NodeFaults: the scheduled restart events — one per
// closed crash (non-sleep) window, at the window's end round — in ascending
// round order.
func (s *Spec) Restarts() []sim.Restart {
	var out []sim.Restart
	for _, c := range s.Crashes {
		if c.Sleep || c.To == 0 {
			continue
		}
		out = append(out, sim.Restart{Node: c.Node, Round: c.To})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Compile-time check: *Spec is a sim.NodeFaults schedule.
var _ sim.NodeFaults = (*Spec)(nil)
