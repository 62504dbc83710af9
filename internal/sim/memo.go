package sim

import (
	"slices"

	"dcluster/internal/sinr"
)

// Run-scoped reception memo. Reception is a pure function of the
// transmitter sequence and the listener restriction on a fixed engine, and
// deterministic schedules revisit the same transmitter sets hundreds of
// times across passes, constructions and phases. The environment therefore
// memoizes round outcomes keyed by (interned listener set, transmitter
// sequence): schedule executors intern their listener slice once per pass
// (content-addressed — reused or rebuilt slices are fine) and execute every
// round through StepMemo, which replays a previously captured reception
// sequence when the identical round has run before. While the round stays
// memoized, neither a repeated pass nor a round repeated inside a different
// pass reaches the engine.
//
// Rounds of every size — solo transmitters, the dominant shape, included —
// go through one open-addressed table, so the memo's memory grows with the
// rounds it captures, never with n per interned listener set: a global
// broadcast over 2000 nodes interns ~2600 listener sets and memoizes only
// ~11 rounds per set.

// memoBudget caps the total memoized ints (transmitters + receptions) per
// execution. A capture that would exceed it empties the memo first, so a
// long run keeps memoizing its recent rounds instead of freezing on its
// first ones.
const memoBudget = 1 << 21

// listenerSetEntry is one interned listener set.
type listenerSetEntry struct {
	id      uint32
	content []int
}

// roundMemoEntry is one memoized round outcome: the exact transmitter
// sequence under one interned listener set, and its receptions.
type roundMemoEntry struct {
	key  uint64
	lid  uint32
	txs  []int32
	recs []sinr.Reception
}

type envMemo struct {
	sets    map[uint64][]listenerSetEntry
	nextSet uint32
	entries int // memoized ints (transmitters + receptions)
	budget  int // cap on entries: memoBudget, shrunk only by tests

	// Open-addressed round table (linear probing over flat arrays): slot i
	// holds hashes[i] and the index+1 of its entry in rounds (0 = empty).
	// Collisions on the full 64-bit hash chain through the probe sequence;
	// full-content comparison disambiguates genuine hash collisions.
	hashes []uint64
	slots  []int32
	rounds []roundMemoEntry

	// Arena chunks backing the entries' txs and recs (see allocTxs).
	txArena  []int32
	recArena []sinr.Reception
}

// roundSlot returns the probe slot for key: either the slot holding an
// existing entry with that hash-and-content or the empty slot where a new
// entry belongs. The table is kept at most half full, so the probe loop
// terminates.
func (m *envMemo) roundSlot(key uint64, lid uint32, txs []int) int {
	mask := uint64(len(m.hashes) - 1)
	i := key & mask
	for {
		s := m.slots[i]
		if s == 0 {
			return int(i)
		}
		if m.hashes[i] == key {
			en := &m.rounds[s-1]
			if en.lid == lid && len(en.txs) == len(txs) {
				match := true
				for k, v := range en.txs {
					if int(v) != txs[k] {
						match = false
						break
					}
				}
				if match {
					return int(i)
				}
			}
		}
		i = (i + 1) & mask
	}
}

// memoChunk sizes the arena chunks backing captured transmitter and
// reception sequences: one allocation serves many captures, instead of two
// small zeroed allocations per memoized round.
const memoChunk = 4096

// allocTxs carves a length-n int32 slice out of the transmitter arena.
func (m *envMemo) allocTxs(n int) []int32 {
	if len(m.txArena)+n > cap(m.txArena) {
		m.txArena = make([]int32, 0, max(memoChunk, n))
	}
	s := m.txArena[len(m.txArena) : len(m.txArena)+n]
	m.txArena = m.txArena[:len(m.txArena)+n]
	return s
}

// allocRecs carves a zero-length, capacity-n slice out of the reception
// arena.
func (m *envMemo) allocRecs(n int) []sinr.Reception {
	if len(m.recArena)+n > cap(m.recArena) {
		m.recArena = make([]sinr.Reception, 0, max(memoChunk, n))
	}
	s := m.recArena[len(m.recArena) : len(m.recArena) : len(m.recArena)+n]
	m.recArena = m.recArena[:len(m.recArena)+n]
	return s
}

// growRounds (re)builds the probe table at twice the capacity.
func (m *envMemo) growRounds() {
	n := 2 * len(m.hashes)
	if n == 0 {
		n = 256
	}
	m.hashes = make([]uint64, n)
	m.slots = make([]int32, n)
	mask := uint64(n - 1)
	for ei := range m.rounds {
		en := &m.rounds[ei]
		i := en.key & mask
		for m.slots[i] != 0 {
			i = (i + 1) & mask
		}
		m.hashes[i] = en.key
		m.slots[i] = int32(ei + 1)
	}
}

// reset empties the round table, keeping its storage and the current arena
// chunks (no entry references them any more). Interned listener sets
// survive: their identifiers stay valid for the environment's lifetime.
func (m *envMemo) reset() {
	clear(m.hashes)
	clear(m.slots)
	clear(m.rounds)
	m.rounds = m.rounds[:0]
	m.txArena = m.txArena[:0]
	m.recArena = m.recArena[:0]
	m.entries = 0
}

// intsHash mixes an int sequence into a lookup key (order-sensitive, as
// both transmitter order and listener order are semantically significant).
func intsHash(seed uint64, xs []int) uint64 {
	h := seed
	for _, v := range xs {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// InternListeners returns a stable identifier for the listener set's
// content (0 for nil = everyone listens). Interning copies the slice, so
// callers may reuse or rebuild theirs freely; identifiers stay valid for
// the lifetime of the environment.
func (e *Env) InternListeners(listeners []int) uint32 {
	if listeners == nil {
		return 0
	}
	if e.memo.sets == nil {
		e.memo.sets = map[uint64][]listenerSetEntry{}
	}
	h := intsHash(uint64(len(listeners))*0x9e3779b97f4a7c15+1469598103934665603, listeners)
	bucket := e.memo.sets[h]
	for _, s := range bucket {
		if slices.Equal(s.content, listeners) {
			return s.id
		}
	}
	e.memo.nextSet++
	id := e.memo.nextSet
	e.memo.sets[h] = append(bucket, listenerSetEntry{id: id, content: append([]int(nil), listeners...)})
	return id
}

// StepMemo is Step with reception memoization: listeners must be the slice
// whose content was interned as lid (callers intern once per pass). If the
// identical (lid, txs) round has executed before, the captured receptions
// are replayed via stepReplay; otherwise the round runs live and its
// outcome is captured. Results, statistics and observer behaviour are
// byte-identical to Step either way.
func (e *Env) StepMemo(txs []int, msgOf func(node int) Msg, listeners []int, lid uint32) []Delivery {
	if len(txs) == 0 || e.ctl.ImpureReception {
		// Fault injection makes reception round-dependent: every round is
		// genuinely new physics, so the memo never captures or replays.
		return e.Step(txs, msgOf, listeners)
	}
	m := &e.memo
	if m.hashes == nil {
		m.growRounds()
	}
	key := intsHash(uint64(lid)*0xc2b2ae3d27d4eb4f+14695981039346656037, txs)
	slot := m.roundSlot(key, lid, txs)
	if s := m.slots[slot]; s != 0 {
		return e.stepReplay(txs, m.rounds[s-1].recs, msgOf)
	}
	ds := e.Step(txs, msgOf, listeners)
	if m.entries+len(txs)+len(ds) > m.budget {
		m.reset()
		slot = m.roundSlot(key, lid, txs)
	}
	en := roundMemoEntry{key: key, lid: lid, txs: m.allocTxs(len(txs)), recs: m.allocRecs(len(ds))}
	for k, v := range txs {
		en.txs[k] = int32(v)
	}
	for _, d := range ds {
		en.recs = append(en.recs, sinr.Reception{Receiver: d.Receiver, Sender: d.Sender})
	}
	m.rounds = append(m.rounds, en)
	m.hashes[slot] = key
	m.slots[slot] = int32(len(m.rounds))
	m.entries += len(txs) + len(ds)
	if 2*len(m.rounds) >= len(m.hashes) {
		m.growRounds()
	}
	return ds
}
