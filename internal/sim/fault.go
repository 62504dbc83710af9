package sim

import (
	"errors"

	"dcluster/internal/sinr"
)

// ErrStalled is the abort cause of the stall watchdog: no observable
// progress (no delivery at a round's listeners, no phase mark) for
// Control.StallWindow consecutive rounds.
var ErrStalled = errors.New("sim: no observable progress within the stall window")

// ErrCanceled is the abort cause of a context cancellation, wrapped around
// the context's own error (errors.Is matches both).
var ErrCanceled = errors.New("sim: run canceled")

// Restart is one scheduled node restart: at Round the node comes back from a
// crash with cleared local state.
type Restart struct {
	Node  int
	Round int64
}

// NodeFaults is a deterministic node-outage schedule, a pure function of the
// round number: a down node neither transmits nor receives. The environment
// filters transmitter sets and receptions against it every round; outages
// compose with silent-round fast-forwarding exactly because the schedule
// depends only on round numbers (losing transmitters can only keep a
// provably silent stretch silent).
type NodeFaults interface {
	// Down reports whether the node is unavailable in round r.
	Down(node int, r int64) bool
	// AnyDown reports whether any node is unavailable in round r — the
	// environment's cheap gate for the per-node filter.
	AnyDown(r int64) bool
	// Restarts returns the scheduled restart events in ascending round
	// order.
	Restarts() []Restart
}

// OnRestart registers a callback fired when a scheduled restart round is
// reached: the restarted node resumes with cleared local state, and the
// callback is where an integration resets whatever per-node state it keeps.
// The built-in protocol tasks derive node state from received messages only,
// so for them a restarted node is simply one that missed all traffic while
// down. Restarts scheduled inside a collapsed silent stretch are delivered
// when the execution reaches the stretch's end.
func (e *Env) OnRestart(fn func(node int)) { e.onRestart = fn }

// fireRestarts delivers every scheduled restart at or before the current
// round. Called after each round-counter advance, including bulk skips.
func (e *Env) fireRestarts() {
	if e.restartIdx >= len(e.restarts) {
		return // no pending restarts: keep the per-round call inlineable
	}
	e.fireRestartsSlow()
}

func (e *Env) fireRestartsSlow() {
	for e.restartIdx < len(e.restarts) && e.restarts[e.restartIdx].Round <= e.rounds {
		if e.onRestart != nil {
			e.onRestart(e.restarts[e.restartIdx].Node)
		}
		e.restartIdx++
	}
}

// filterDown strips down nodes from a transmitter set (without mutating the
// caller's slice). The zero-fault path returns the input untouched.
func (e *Env) filterDown(txs []int) []int {
	nf := e.ctl.NodeFaults
	if nf == nil || len(txs) == 0 || !nf.AnyDown(e.rounds) {
		return txs
	}
	out := e.txFilt[:0]
	for _, v := range txs {
		if !nf.Down(v, e.rounds) {
			out = append(out, v)
		}
	}
	e.txFilt = out
	return out
}

// applyFaults returns the receptions of the current round that survive its
// faults: the engine decorator's removals (Filter), then receptions at down
// receivers. recs, the round's fault-free outcome, is left intact;
// survivors go to the recFilt scratch. The zero-fault path returns recs
// itself.
func (e *Env) applyFaults(txs []int, recs []sinr.Reception) []sinr.Reception {
	if e.filter != nil {
		e.recFilt = e.filter.Filter(e.rounds, txs, recs, e.recFilt[:0])
		recs = e.recFilt
	}
	nf := e.ctl.NodeFaults
	if nf == nil || !nf.AnyDown(e.rounds) {
		return recs
	}
	// Compacting in place is safe when recs is already the scratch: the
	// write cursor never passes the read cursor.
	out := e.recFilt[:0]
	for _, r := range recs {
		if !nf.Down(r.Receiver, e.rounds) {
			out = append(out, r)
		}
	}
	e.recFilt = out
	return out
}

// noteProgress resets the stall watchdog (deliveries and phase marks are
// the observable progress signals).
func (e *Env) noteProgress() { e.idle = 0 }

// noteLiveRound feeds one executed round into the stall watchdog: any round
// without a delivery counts against the window; one with deliveries resets
// it. Fires after the round's observer callback, so the observer sees the
// round that tripped the watchdog.
func (e *Env) noteLiveRound(deliveries int) {
	if e.ctl.StallWindow <= 0 {
		return
	}
	if deliveries > 0 {
		e.idle = 0
		return
	}
	e.noteSilentRound()
}

// noteSilentRound counts one progress-free round against the stall window.
func (e *Env) noteSilentRound() {
	if e.ctl.StallWindow <= 0 {
		return
	}
	e.idle++
	if e.idle >= e.ctl.StallWindow {
		panic(stopExecution{ErrStalled})
	}
}

// stallRound returns the absolute round at which the watchdog would fire if
// the next k rounds bring no progress, or 0 when it would not fire within
// them. Skip uses it to abort a collapsed silent stretch at exactly the
// round single-stepping would.
func (e *Env) stallRound(k int64) int64 {
	w := e.ctl.StallWindow
	if w <= 0 || e.idle+k < w {
		return 0
	}
	return e.rounds + (w - e.idle)
}
