package sim

import (
	"slices"
	"sync"
	"sync/atomic"

	"dcluster/internal/sinr"
)

// Pass is one prepared schedule pass, as StepPass executes it: the pass
// spans the next Len rounds, and schedule round Active[k] is transmitted
// by the senders at positions Events[Ends[k-1]:Ends[k]] (Ends[-1] = 0), in
// that order. All other rounds of the pass are silent.
type Pass struct {
	Len     int
	Senders []int
	Events  []int32
	Active  []int32
	Ends    []int32

	// Listeners restricts reception as in Step, and Lid is its interned
	// id. Within is the interned id of the enclosing listener set of an
	// addressed pass — Listeners is then a subsequence of that set — and
	// equals Lid otherwise.
	Listeners   []int
	Lid, Within uint32
}

// resolveJobs and resolveTxs cap the distinct misses of one resolved window
// of a pass and their transmitters, and so the buffers holding them and
// their receptions; a pass with more is resolved window by window.
const (
	resolveJobs = 256
	resolveTxs  = 1 << 14
)

// resolveWork is the engine work, counted in (transmitter, listener)
// pairs, from which a pass is resolved and from which a resolved window's
// misses are spread over helper sessions. Every listener sums the signal
// of every transmitter, so a Deliver costs about one SINR term per pair:
// ~3 ns on the dense engine (a round of 128 transmitters over 1024
// listeners, 2¹⁷ pairs, takes 0.4 ms on a 2-vCPU x86 host), and no more
// than about twice that on the sparse one, which prunes far pairs. A
// pass's transmitter events times its listeners bound what its misses can
// cost, and a window's distinct missing transmitters times its listeners
// are what they do cost. Both are counted before any round runs, so the
// choices follow from the input, never from the host's speed or load.
//
// Calibrated on that host: with fan-out at 2¹⁶ or at 2¹⁷ pairs,
// BenchmarkClustering and BenchmarkTable1/ours at n=48 and n=256 measured
// the same, so one constant serves both choices; resolving every pass made
// the n=48 rows 15–22% slower, so small passes keep the lookup loop.
const resolveWork = 1 << 17

// Kinds of a resolved round's reception source.
const (
	srcSilent = iota // every transmitter is down
	srcEntry         // memo entry under the round's own listener set
	srcWithin        // memo entry of the enclosing set, kept at the listeners
	srcJob           // computed in the pass (PassKit.jobs)
)

// passRound is where the fault-free receptions of one round of a resolved
// pass come from: a memo entry, or a job index.
type passRound struct {
	src  int32
	kind uint8
}

// passJob is one distinct missing round of a resolved pass: its surviving
// transmitters txs[txLo:txHi], its memo key, and, once computed, its
// receptions as (receiver, sender) pairs out[worker][lo:hi].
type passJob struct {
	txLo, txHi int32
	slot       int32 // in PassKit.dedup
	key        uint64
	worker     int32
	lo, hi     int32
}

// PassKit holds what an environment needs to resolve passes beyond its
// own session: the helper sessions of workers 1.., made from the physical
// engine on first need, and the resolution buffers, reused by every pass —
// the resolved rounds from base on, the distinct misses and their
// transmitters, and the per-worker buffers the misses are computed into.
// Executions over one engine may hand a kit on from one to the next (see
// UseKit), so its sessions and buffers are made once, not per execution.
type PassKit struct {
	helpers []sinr.Engine

	base, end int // the resolved window: rounds base..end-1
	rounds    []passRound
	txs       []int
	jobs      []passJob

	// Open-addressed (key, job+1) table that merges identical missing
	// rounds of one pass; only the slots of the pass's jobs are set.
	dedupKey []uint64
	dedup    []int32

	out    [][]int32          // per worker: the receptions of its jobs
	recs   [][]sinr.Reception // per worker: Deliver scratch
	panics []any              // per worker: a recovered panic
	cursor atomic.Int64
	stop   atomic.Bool
	wg     sync.WaitGroup
}

// StepPass executes one prepared schedule pass, the senders transmitting
// msgOf(node) as in Step, and hands every non-silent schedule round's index
// and deliveries, valid only during the call, to sink. It runs each round as
// Step would (stop checks, restarts, down-node filtering, faults, messages,
// statistics, observer and watchdog, in round order), with silent stretches
// fast-forwarded through NextActive, and serves every reception through the
// memo.
//
// The schedule is oblivious, so the whole pass is known before it starts.
// When its transmitter events times its listeners reach resolveWork, it is
// resolved window by window: every round of the window is probed once for
// its surviving transmitters and its memo entry, identical missing rounds
// are merged, and the distinct misses are computed together, across
// GOMAXPROCS workers with one session each when their own work reaches
// resolveWork (see computeJobs). The window's rounds then run from their
// entries or computed receptions. Computed rounds are captured into the
// memo only after the window's last round, so a capture that empties the
// memo never takes storage a later round of the window reads. A smaller
// pass runs its rounds one at a time, looking each up and computing a miss
// on the caller's session. Either way the choice, and so every Deliver
// call, depends only on the pass and the memo, not on GOMAXPROCS.
//
// An addressed round (Within ≠ Lid) is first served from the enclosing
// set's entry under the same transmitters, keeping the receptions at the
// listeners. This is exact: reception at a listener depends only on the
// transmitters, every engine emits in listener order, and faults only ever
// remove receptions. Otherwise it goes through its own entry like any
// round.
func (e *Env) StepPass(p *Pass, msgOf func(node int) Msg, sink func(round int, ds []Delivery)) {
	start := e.rounds
	if e.memo.hashes == nil {
		e.memo.growRounds()
	}
	if len(p.Events)*e.listenerCount(p.Listeners) < resolveWork {
		for k, i := range p.Active {
			e.NextActive(start + int64(i) + 1)
			sink(int(i), e.stepLookup(p, k, start, msgOf))
		}
	} else {
		ps := e.passKit()
		ps.jobs, ps.end = ps.jobs[:0], 0 // no window yet, nothing to capture
		for k, i := range p.Active {
			e.NextActive(start + int64(i) + 1)
			if k == ps.end {
				e.captureJobs(p.Lid)
				e.resolve(p, k, start)
			}
			sink(int(i), e.emitResolved(p, k, start, msgOf))
		}
		e.captureJobs(p.Lid)
	}
	e.NextActive(start + int64(p.Len) + 1)
}

// listenerCount is the number of listeners of a round over listeners: all
// n nodes when listeners is nil.
func (e *Env) listenerCount(listeners []int) int {
	if listeners == nil {
		return len(e.IDs)
	}
	return len(listeners)
}

// stepLookup runs round k of an unresolved pass: from its memo entry on a
// hit, and otherwise computed on the caller's session and captured.
func (e *Env) stepLookup(p *Pass, k int, start int64, msgOf func(node int) Msg) []Delivery {
	e.openRound()
	txs := e.passTxs(p, k, start)
	if !e.accountTx(txs) {
		return nil
	}
	m := &e.memo
	if p.Within != p.Lid {
		if s := m.slots[m.roundSlot(roundKey(p.Within, txs), p.Within, txs)]; s != 0 {
			e.markListeners(p.Listeners, p.Lid)
			e.recBuf = m.recall(s, e.inSet, p.Lid, e.recBuf[:0])
			return e.deliver(txs, e.recBuf, msgOf)
		}
	}
	key := roundKey(p.Lid, txs)
	slot := m.roundSlot(key, p.Lid, txs)
	if s := m.slots[slot]; s != 0 {
		e.recBuf = m.recall(s, nil, 0, e.recBuf[:0])
		return e.deliver(txs, e.recBuf, msgOf)
	}
	e.recBuf = e.phys.Deliver(txs, p.Listeners, e.recBuf[:0])
	putPairs(m.capture(slot, key, p.Lid, txs, len(e.recBuf)), e.recBuf)
	return e.deliver(txs, e.recBuf, msgOf)
}

// resolve probes rounds k.. of the pass for their surviving transmitters
// and memo entries, up to the round that brings the window's distinct
// misses to resolveJobs or their transmitters to resolveTxs, merges the
// identical misses into jobs and computes them.
func (e *Env) resolve(p *Pass, k int, start int64) {
	ps := e.kit
	ps.base = k
	ps.rounds = ps.rounds[:0]
	ps.jobs = ps.jobs[:0]
	ps.txs = ps.txs[:0]
	if ps.dedup == nil {
		ps.dedupKey = make([]uint64, 2*resolveJobs)
		ps.dedup = make([]int32, 2*resolveJobs)
		// Sized once: a window stops at the job that reaches resolveTxs.
		ps.txs = make([]int, 0, resolveTxs+len(e.IDs))
	}
	for ; k < len(p.Active) && len(ps.jobs) < resolveJobs && len(ps.txs) < resolveTxs; k++ {
		pr := passRound{kind: srcSilent}
		if txs := e.passTxs(p, k, start); len(txs) > 0 {
			pr.kind, pr.src = e.probe(p, txs)
		}
		ps.rounds = append(ps.rounds, pr)
	}
	ps.end = k
	for _, j := range ps.jobs {
		ps.dedup[j.slot] = 0
	}
	e.computeJobs(p.Listeners)
}

// passTxs returns the transmitters of the pass's round k that are up in
// that round, in the environment's round scratch.
func (e *Env) passTxs(p *Pass, k int, start int64) []int {
	lo := int32(0)
	if k > 0 {
		lo = p.Ends[k-1]
	}
	r := start + int64(p.Active[k]) + 1
	nf := e.ctl.NodeFaults
	down := nf != nil && nf.AnyDown(r)
	txs := e.stepTxs[:0]
	for _, j := range p.Events[lo:p.Ends[k]] {
		if v := p.Senders[j]; !down || !nf.Down(v, r) {
			txs = append(txs, v)
		}
	}
	e.stepTxs = txs
	return txs
}

// probe finds the reception source of a round of the resolved pass with
// surviving transmitters txs: the enclosing set's memo entry, its own, or
// a job.
func (e *Env) probe(p *Pass, txs []int) (uint8, int32) {
	m := &e.memo
	if p.Within != p.Lid {
		if s := m.slots[m.roundSlot(roundKey(p.Within, txs), p.Within, txs)]; s != 0 {
			return srcWithin, s
		}
	}
	key := roundKey(p.Lid, txs)
	if s := m.slots[m.roundSlot(key, p.Lid, txs)]; s != 0 {
		return srcEntry, s
	}
	return srcJob, e.kit.addJob(key, txs)
}

// passKit returns the environment's pass kit, made on first use unless
// UseKit handed one over.
func (e *Env) passKit() *PassKit {
	if e.kit == nil {
		e.kit = new(PassKit)
	}
	return e.kit
}

// addJob returns the job computing transmitters txs (memo key key),
// merging it with an identical earlier miss of the pass.
func (ps *PassKit) addJob(key uint64, txs []int) int32 {
	mask := uint64(len(ps.dedup) - 1)
	i := key & mask
	for ; ps.dedup[i] != 0; i = (i + 1) & mask {
		if ps.dedupKey[i] != key {
			continue
		}
		j := ps.dedup[i] - 1
		if job := &ps.jobs[j]; slices.Equal(ps.txs[job.txLo:job.txHi], txs) {
			return j
		}
	}
	lo := len(ps.txs)
	ps.txs = append(ps.txs, txs...)
	ps.jobs = append(ps.jobs, passJob{txLo: int32(lo), txHi: int32(len(ps.txs)), slot: int32(i), key: key})
	ps.dedupKey[i], ps.dedup[i] = key, int32(len(ps.jobs))
	return int32(len(ps.jobs) - 1)
}

// computeJobs computes the resolved window's jobs: on the caller's session,
// or, when their transmitters times the listeners reach resolveWork,
// pulled from an atomic cursor by up to GOMAXPROCS workers, one session
// each. A panic on any worker, a mid-round abort included, is re-raised on
// the caller once every worker has returned.
func (e *Env) computeJobs(listeners []int) {
	ps := e.kit
	if len(ps.panics) < e.procs {
		ps.out = make([][]int32, e.procs)
		ps.recs = make([][]sinr.Reception, e.procs)
		ps.panics = make([]any, e.procs)
	}
	workers := 1
	if len(ps.txs)*e.listenerCount(listeners) >= resolveWork {
		workers = min(e.procs, len(ps.jobs))
	}
	for len(ps.helpers) < workers-1 {
		s := e.phys.Session()
		if sc, ok := s.(sinr.StopChecker); ok {
			sc.SetStopCheck(e.stopFn)
		}
		ps.helpers = append(ps.helpers, s)
	}
	ps.cursor.Store(0)
	ps.stop.Store(false)
	ps.wg.Add(workers - 1)
	for w := range workers {
		if ps.out[w] == nil {
			// Sized for a window's receptions, which rarely outnumber
			// its transmitters.
			ps.out[w] = make([]int32, 0, 2*resolveTxs/workers)
		}
		ps.out[w] = ps.out[w][:0]
		if w > 0 {
			go func(w int, eng sinr.Engine) {
				defer ps.wg.Done()
				e.drainJobs(w, eng, listeners)
			}(w, ps.helpers[w-1])
		}
	}
	e.drainJobs(0, e.phys, listeners)
	ps.wg.Wait()
	for _, r := range ps.panics[:workers] {
		if r != nil {
			clear(ps.panics)
			panic(r)
		}
	}
}

// drainJobs computes jobs from the shared cursor on worker w's session,
// into the worker's buffer, until none is left or a worker has panicked. A
// panic is recovered and recorded for computeJobs; engines restore their
// scratch before raising a mid-round abort, so the session stays valid.
func (e *Env) drainJobs(w int, eng sinr.Engine, listeners []int) {
	ps := e.kit
	defer func() {
		if r := recover(); r != nil {
			ps.panics[w] = r
			ps.stop.Store(true)
		}
	}()
	for !ps.stop.Load() {
		j := int(ps.cursor.Add(1) - 1)
		if j >= len(ps.jobs) {
			return
		}
		job := &ps.jobs[j]
		recs := eng.Deliver(ps.txs[job.txLo:job.txHi], listeners, ps.recs[w][:0])
		ps.recs[w] = recs
		lo := len(ps.out[w])
		ps.out[w] = slices.Grow(ps.out[w], 2*len(recs))[:lo+2*len(recs)]
		putPairs(ps.out[w][lo:], recs)
		job.worker, job.lo, job.hi = int32(w), int32(lo), int32(len(ps.out[w]))
	}
}

// emitResolved runs round k of a resolved pass from its reception source.
func (e *Env) emitResolved(p *Pass, k int, start int64, msgOf func(node int) Msg) []Delivery {
	ps := e.kit
	pr := ps.rounds[k-ps.base]
	e.openRound()
	txs := e.passTxs(p, k, start)
	if !e.accountTx(txs) {
		return nil
	}
	m := &e.memo
	recs := e.recBuf[:0]
	switch pr.kind {
	case srcWithin:
		e.markListeners(p.Listeners, p.Lid)
		recs = m.recall(pr.src, e.inSet, p.Lid, recs)
	case srcEntry:
		recs = m.recall(pr.src, nil, 0, recs)
	default:
		job := &ps.jobs[pr.src]
		recs = appendPairs(recs, ps.out[job.worker][job.lo:job.hi])
	}
	e.recBuf = recs
	return e.deliver(txs, recs, msgOf)
}

// captureJobs memoizes the resolved pass's computed rounds under lid.
func (e *Env) captureJobs(lid uint32) {
	ps := e.kit
	m := &e.memo
	for i := range ps.jobs {
		job := &ps.jobs[i]
		txs := ps.txs[job.txLo:job.txHi]
		if slot := m.roundSlot(job.key, lid, txs); m.slots[slot] == 0 {
			copy(m.capture(slot, job.key, lid, txs, int(job.hi-job.lo)/2), ps.out[job.worker][job.lo:job.hi])
		}
	}
}

// UseKit hands the environment a pass kit to resolve its passes with, in
// place of a kit of its own. The kit's helper sessions must be sessions of
// the physical engine, and the kit must not be in use by another
// environment while this one executes.
func (e *Env) UseKit(k *PassKit) {
	e.kit = k
	e.setHelperStops()
}

// setHelperStops installs the execution's stop hook on the kit's helper
// sessions.
func (e *Env) setHelperStops() {
	if e.kit == nil {
		return
	}
	for _, h := range e.kit.helpers {
		if sc, ok := h.(sinr.StopChecker); ok {
			sc.SetStopCheck(e.stopFn)
		}
	}
}
