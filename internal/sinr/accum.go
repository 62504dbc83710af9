package sinr

import (
	"math"

	"dcluster/internal/geom"
)

// This file implements the grid path of the sparse engine: every round of
// more than smallTxCutoff transmitters is decided by an accumulating,
// cell-blocked sweep over the listener cells — the sparse counterpart of the
// dense engine's transposed row-accumulation. Each listener cell derives its
// ±span window geometry and bucket offsets once, streams all of its
// listeners through the shared window descriptors with register
// accumulation, and stores each listener's outcome into a flat,
// epoch-stamped listener-indexed array that a final in-order sweep emits
// from. A listener has one exact region, every transmitter of its window,
// and one bounded region, every cell outside it (α > 2 makes that
// interference converge, so a count-weighted bound on it is sound): the
// (hi, lo) pair of computeCellTail, a walk over the Chebyshev rings of cells
// around the window that reads each ring's transmitter count from the
// round's summed-area table and weights it by the ring's closest and
// farthest gain. That pair, and the list of dirty cells outside the window
// that the exact out-of-window walk reads, are state of the listener cell
// being visited (cellTail): filled for the first listener that needs them
// and dropped when the sweep moves on. Every decision is certified under the
// certSlack margin or falls back to the dense-order exactCheck, so
// receptions are byte-identical to the dense engine's.

// winCell is one nonempty bucket cell of a listener-cell window: its
// transmitter range in the round's CSR bucket array.
type winCell struct {
	start, end int32
}

// gridStripe is the scratch of one stripe of listener-cell rows: the
// window descriptors (inner 3×3 first, then the outer ones copied from
// outw), one listener's quick-pass squared distances, the buffer of the
// visited cell's out-of-window list, and the stop-hook error that ended the
// stripe.
type gridStripe struct {
	win, outw []winCell
	d2q       []float64
	out       []int32
	err       error
}

// cellTail is the out-of-window state of the listener cell c a stripe is
// visiting, for the current round: the computeCellTail pair (hi, lo) and
// the round's dirty cells outside c's window, each filled lazily for the
// first listener that needs it (most listeners exit before either).
type cellTail struct {
	c               int
	hi, lo          float64
	out             []int32
	bounded, listed bool
}

// bounds returns the pair, computing it on first use.
func (f *SparseField) bounds(t *cellTail) (hi, lo float64) {
	if !t.bounded {
		t.hi, t.lo = f.computeCellTail(t.c)
		t.bounded = true
	}
	return t.hi, t.lo
}

// deliverAccum is the accumulating Deliver core, entered with the bucket CSR
// built. It sweeps the listener cells in row-major order, in one stripe of
// rows, or in up to GOMAXPROCS stripes on fields of at least parallelCutoff
// nodes: stripe 0 runs on the caller's goroutine, the others on their own.
// It then emits receptions in listener order from the flat outcome array,
// the order the Engine contract fixes.
func (f *SparseField) deliverAccum(txs []int, listeners []int, dst []Reception) ([]Reception, error) {
	s := f.scr
	var isL []bool
	if listeners != nil {
		isL = s.isL
		for _, u := range listeners {
			isL[u] = true
		}
	}

	rows, stripes := f.grid.NY, 1
	if f.workers >= 2 && f.n >= parallelCutoff {
		stripes = min(f.workers, rows)
	}
	per := (rows + stripes - 1) / stripes
	stripes = (rows + per - 1) / per // every stripe nonempty
	for len(s.stripes) < stripes {
		s.stripes = append(s.stripes, gridStripe{})
	}
	for w := 1; w < stripes; w++ {
		s.wg.Add(1)
		// Everything is passed as an argument, not captured: a capture
		// would move the captured variables to the heap on every call,
		// one-stripe rounds included.
		go func(f *SparseField, st *gridStripe, y0, y1 int, txs []int, isL []bool) {
			defer f.scr.wg.Done()
			st.err = f.accumRows(st, y0, y1, txs, isL)
		}(f, &s.stripes[w], w*per, min(w*per+per, rows), txs, isL)
	}
	s.stripes[0].err = f.accumRows(&s.stripes[0], 0, per, txs, isL)
	s.wg.Wait()
	var stopErr error
	for w := range s.stripes[:stripes] {
		if stopErr = s.stripes[w].err; stopErr != nil {
			break
		}
	}

	if stopErr != nil {
		// Aborted mid-accumulation: restore the listener bitmap and hand the
		// error up without emitting (the epoch stamp invalidates any partial
		// outcomes on the next round).
		if listeners != nil {
			for _, u := range listeners {
				isL[u] = false
			}
		}
		return dst, stopErr
	}

	// Emission sweep, in listener order. Listeners of skipped cells (no
	// transmitter anywhere in their 3×3 block, hence nothing in range) were
	// never stamped and receive nothing.
	if listeners == nil {
		for u := 0; u < f.n; u++ {
			if s.accStamp[u] == s.epoch && s.accSender[u] >= 0 {
				dst = append(dst, Reception{Receiver: u, Sender: int(s.accSender[u])})
			}
		}
	} else {
		for _, u := range listeners {
			if s.accStamp[u] == s.epoch && s.accSender[u] >= 0 {
				dst = append(dst, Reception{Receiver: u, Sender: int(s.accSender[u])})
			}
			isL[u] = false
		}
	}
	return dst, nil
}

// accumRows runs the cell-blocked accumulation over listener-cell rows
// [y0, y1) with stripe st's scratch, writing each processed listener's
// outcome into the epoch-stamped accSender array. A non-nil error means the
// stop hook tripped; the stripe stops without panicking.
//
// Per cell block it runs a three-tier cascade shared by all member
// listeners:
//
//  1. Quick pass — squared distances to every inner-3×3 transmitter, no
//     gains yet. If none lands inside the candidate ball (d² ≤ rangeQ2,
//     where every gain that can reach the β·noise floor lives), no sender
//     can decode and the listener stores "no" immediately.
//  2. Quick certain-no — exact gains of ALL inner transmitters (from the
//     recorded distances) lower-bound the near interference; any
//     transmitter outside the 3×3 block is at least a cell (≥ range) away,
//     so its gain is capped by β·noise, and the cell's count-weighted
//     window lower bound restLB (computed once per cell) covers the rest.
//     If max(best, β·noise) cannot clear β·(noise + nearQ + restLB − best),
//     no sender decodes. In dense rounds this resolves almost every
//     listener without touching the outer window or any tail bound. Its
//     quick certain-yes twin grants the nearest transmitter when it clears
//     the ceiling of inner gains, restUB and the cell's out-of-window bound.
//  3. Full scan — the remaining few sum the whole window exactly through
//     the shared descriptors and go through the decide chain (out-of-window
//     bounds, exact out-of-window walk, dense-order fallback), which reads
//     and fills the cell's cellTail.
//
// Tiers 1–2 decide only under the same certSlack margins the decide chain
// uses, so every outcome equals exactCheck's.
func (f *SparseField) accumRows(st *gridStripe, y0, y1 int, txs []int, isL []bool) error {
	s := f.scr
	win, outw, d2q := st.win, st.outw, st.d2q
	rangeQ2 := f.rangeQ2
	grid := f.grid
	nx, ny := grid.NX, grid.NY
	cell2 := grid.Cell * grid.Cell
	span, side := f.span, 2*f.span+1
	beta, noise := f.params.Beta, f.params.Noise
	bn := beta * noise
	epoch := s.epoch
	for cy := y0; cy < y1; cy++ {
		for cx := 0; cx < nx; cx++ {
			c := cy*nx + cx
			members := grid.Nodes[grid.Start[c]:grid.Start[c+1]]
			if len(members) == 0 {
				continue
			}
			// Cooperative cancellation, once per nonempty listener cell: the
			// per-cell work dominates the hook call, and stripes bail without
			// panicking (the caller aborts after Wait).
			if f.stop != nil {
				if err := f.stop(); err != nil {
					return err
				}
			}
			wxlo, wxhi, wylo, wyhi := f.window(c)
			ixlo, ixhi := max(cx-1, 0), min(cx+1, nx-1)
			iylo, iyhi := max(cy-1, 0), min(cy+1, ny-1)
			// Inner 3×3 descriptors first (the quick pass iterates
			// win[:ninner]). Range pruning from the listener side: a
			// deliverable sender must lie within the transmission range,
			// which the inner block covers — no inner descriptors means no
			// member of this cell can receive, and the whole cell is
			// skipped, exactly mirroring the transmitter-centric skip
			// filter.
			win = win[:0]
			for wy := iylo; wy <= iyhi; wy++ {
				base := wy * nx
				for wx := ixlo; wx <= ixhi; wx++ {
					if st, en := s.cellStart[base+wx], s.cellEnd[base+wx]; st != en {
						win = append(win, winCell{st, en})
					}
				}
			}
			ninner := len(win)
			if ninner == 0 {
				continue
			}
			tail := cellTail{c: c, out: st.out[:0]}
			// One sweep of the outer window derives the shared rest bounds
			// and records the outer descriptors. It is deferred until the
			// first member survives the quick distance pass: cells whose
			// members all exit at the floor (no transmitter in the candidate
			// ball) never look past the inner block.
			var restLB, restUB float64
			outerSwept := false
			outerBuilt := false
			for _, u32 := range members {
				u := int(u32)
				if s.isTx[u] || (isL != nil && !isL[u]) {
					continue
				}
				p := f.pos[u]
				d2q = d2q[:0]
				mind2 := math.MaxFloat64
				vq := int32(-1)
				dup := false
				for _, w := range win[:ninner] {
					for k := w.start; k < w.end; k++ {
						d2 := geom.Dist2(f.pos[s.cellTx[k]], p)
						d2q = append(d2q, d2)
						if d2 < mind2 {
							mind2, vq, dup = d2, s.cellTx[k], false
						} else if d2 == mind2 {
							dup = true
						}
					}
				}
				if mind2 > rangeQ2 {
					// Every transmitter sits outside the candidate ball: its
					// real gain is below βN(1−certSlack), hence below βN even
					// after float rounding — nothing can decode.
					s.accSender[u] = -1
					s.accStamp[u] = epoch
					continue
				}
				if !outerSwept {
					outerSwept = true
					outw = outw[:0]
					for wy := wylo; wy <= wyhi; wy++ {
						base := wy * nx
						trow := (wy-cy+span)*side - cx + span
						inRow := wy >= iylo && wy <= iyhi
						for wx := wxlo; wx <= wxhi; wx++ {
							if inRow && wx >= ixlo && wx <= ixhi {
								continue
							}
							st, en := s.cellStart[base+wx], s.cellEnd[base+wx]
							if st == en {
								continue
							}
							cnt := float64(en - st)
							restLB += cnt * f.nearLo[trow+wx]
							restUB += cnt * f.nearHi[trow+wx]
							outw = append(outw, winCell{st, en})
						}
					}
				}
				var nearQ float64
				for _, d2 := range d2q {
					nearQ += gainFromDist2(f.params, d2)
				}
				gb := gainFromDist2(f.params, mind2)
				bu := gb
				if bn > bu {
					bu = bn
				}
				if certNo(bu, beta*(noise+nearQ+restLB-bu)) {
					s.accSender[u] = -1
					s.accStamp[u] = epoch
					continue
				}
				// Quick certain-yes: the nearest transmitter's gain is exact
				// (and the strict maximum: everything outside the inner
				// block is at least a cell away, farther than mind2 <
				// cell²), and the total interference is upper-bounded
				// without scanning the outer window — inner exactly, window
				// members by the count-weighted nearHi sum, the rest by the
				// cell's out-of-window hi. If the nearest clears β
				// times that ceiling, it decodes; the margin rule matches
				// the decide chain's certain-yes exit.
				if !dup && mind2 < cell2 {
					hi, _ := f.bounds(&tail)
					if certYes(gb, beta*(noise+nearQ+restUB+hi-gb)) {
						s.accSender[u] = vq
						s.accStamp[u] = epoch
						continue
					}
				}
				if !outerBuilt {
					win = append(win, outw...)
					outerBuilt = true
				}
				a := scanAcc{bestV: -1}
				for _, w := range win {
					for k := w.start; k < w.end; k++ {
						v := int(s.cellTx[k])
						g := gainFromDist2(f.params, geom.Dist2(f.pos[v], p))
						a.nearTotal += g
						switch {
						case g > a.best:
							a.best, a.bestV, a.tied = g, v, false
						case g == a.best && a.bestV >= 0:
							a.tied = true
						}
					}
				}
				sender := int32(-1)
				if v, ok := f.decide(u, txs, &a, &tail); ok {
					sender = int32(v)
				}
				s.accSender[u] = sender
				s.accStamp[u] = epoch
			}
			st.out = tail.out
		}
	}
	st.win, st.outw, st.d2q = win, outw, d2q
	return nil
}
