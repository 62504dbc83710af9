package sim

import (
	"slices"

	"dcluster/internal/sinr"
)

// Run-scoped reception memo. Fault-free reception is a pure function of the
// transmitter sequence and the listener restriction on a fixed engine, and
// deterministic schedules revisit the same transmitter sets hundreds of
// times across passes, constructions and phases. The environment therefore
// memoizes round outcomes keyed by (interned listener set, transmitter
// sequence): schedule executors intern their listener slice once per pass
// (content-addressed — reused or rebuilt slices are fine) and execute every
// pass through StepPass (pass.go), which replays a previously captured
// reception sequence when the identical round has run before. While the
// round stays memoized, neither a repeated pass nor a round repeated inside
// a different pass reaches the engine. An addressed round — listeners a
// subsequence of an enclosing set, like a confirmation pass's addressees
// within the active set — is served from the enclosing set's entry when
// there is one, keeping the receptions at its listeners. The misses of a
// large pass are resolved together, a window at a time, and computed on
// several engine sessions at once; their captures follow the window's last
// round.
//
// Faulted executions share the memo. Every injected fault only removes
// receptions from the fault-free outcome (see fault.Engine), so the memo
// keys on the transmitters that survive the round's node outages and holds
// the fault-free receptions of the engine under the fault decorator; the
// round's faults are applied on top of a hit or a miss alike.
//
// Rounds of every size — solo transmitters, the dominant shape, included —
// go through one open-addressed table, so the memo's memory grows with the
// rounds it captures, never with n per interned listener set: a global
// broadcast over 2000 nodes interns ~2600 listener sets and memoizes only
// ~11 rounds per set.

// memoBudget and memoPerNode cap the memoized ints (transmitters +
// receptions) of one execution at min(memoBudget, memoPerNode·n). A capture
// that would exceed the cap empties the memo first, so a long run keeps
// memoizing its recent rounds instead of freezing on its first ones. The
// per-node term keeps a small network's footprint proportional to it; from
// n = 2048 on, the flat cap applies.
const (
	memoBudget  = 1 << 21
	memoPerNode = 1024
)

// listenerSetEntry is one interned listener set.
type listenerSetEntry struct {
	id      uint32
	content []int
}

// roundMemoEntry is one memoized round outcome under one interned listener
// set: data holds the ntx transmitters, then a (receiver, sender) pair per
// fault-free reception.
type roundMemoEntry struct {
	key  uint64
	lid  uint32
	ntx  int32
	data []int32
}

type envMemo struct {
	sets    map[uint64][]listenerSetEntry
	nextSet uint32
	entries int // memoized ints (transmitters + receptions)
	budget  int // cap on entries; shrunk only by tests
	empties int // times a capture emptied the memo

	// Open-addressed round table (linear probing over flat arrays): slot i
	// holds hashes[i] and the index+1 of its entry in rounds (0 = empty).
	// Collisions on the full 64-bit hash chain through the probe sequence;
	// full-content comparison disambiguates genuine hash collisions.
	hashes []uint64
	slots  []int32
	rounds []roundMemoEntry

	// Arena chunks backing the entries' data (see alloc): chunks[used-1] is
	// the one being carved; an empty memo carves its kept chunks again.
	chunks [][]int32
	used   int
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
			if en.lid == lid && int(en.ntx) == len(txs) {
				match := true
				for k, v := range en.data[:en.ntx] {
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

// memoChunk sizes the arena chunks backing captured rounds: one allocation
// serves many captures, instead of a small zeroed allocation per memoized
// round.
const memoChunk = 4096

// alloc carves a length-n slice out of the arena, moving to the next kept
// chunk, or a new one, when the current chunk lacks room.
func (m *envMemo) alloc(n int) []int32 {
	if m.used == 0 || len(m.chunks[m.used-1])+n > cap(m.chunks[m.used-1]) {
		if m.used == len(m.chunks) {
			m.chunks = append(m.chunks, nil)
		}
		if cap(m.chunks[m.used]) < n {
			m.chunks[m.used] = make([]int32, 0, max(memoChunk, n))
		}
		m.chunks[m.used] = m.chunks[m.used][:0]
		m.used++
	}
	c := m.chunks[m.used-1]
	m.chunks[m.used-1] = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// growRounds (re)builds the probe table at twice the capacity, and gives
// rounds the capacity the table admits before its next growth (the table is
// kept at most half full).
func (m *envMemo) growRounds() {
	n := 2 * len(m.hashes)
	if n == 0 {
		n = 256
	}
	m.hashes = make([]uint64, n)
	m.slots = make([]int32, n)
	m.rounds = append(make([]roundMemoEntry, 0, n/2), m.rounds...)
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

// reset empties the round table, keeping its storage and the arena chunks
// (no entry references them any more). Interned listener sets survive:
// their identifiers stay valid for the environment's lifetime.
func (m *envMemo) reset() {
	clear(m.hashes)
	clear(m.slots)
	clear(m.rounds)
	m.rounds = m.rounds[:0]
	m.used = 0
	m.entries = 0
	m.empties++
}

// capture memoizes round (lid, txs) with nrec fault-free receptions in
// slot, the empty slot roundSlot found for key, and returns the entry's
// 2·nrec (receiver, sender) pair slots for the caller to fill.
func (m *envMemo) capture(slot int, key uint64, lid uint32, txs []int, nrec int) []int32 {
	if m.entries+len(txs)+nrec > m.budget {
		m.reset()
		slot = m.roundSlot(key, lid, txs)
	}
	data := m.alloc(len(txs) + 2*nrec)
	for k, v := range txs {
		data[k] = int32(v)
	}
	m.rounds = append(m.rounds, roundMemoEntry{key: key, lid: lid, ntx: int32(len(txs)), data: data})
	m.hashes[slot] = key
	m.slots[slot] = int32(len(m.rounds))
	m.entries += len(txs) + nrec
	if 2*len(m.rounds) >= len(m.hashes) {
		m.growRounds()
	}
	return data[len(txs):]
}

// putPairs writes receptions as (receiver, sender) pairs into dst.
func putPairs(dst []int32, recs []sinr.Reception) {
	for k, r := range recs {
		dst[2*k], dst[2*k+1] = int32(r.Receiver), int32(r.Sender)
	}
}

// recall decodes the memoized receptions of entry s (a slots value) into
// dst. With a non-nil mark it keeps only the receptions at receivers v with
// mark[v] == lid: an addressed round served from the entry of its enclosing
// listener set (see StepPass).
func (m *envMemo) recall(s int32, mark []uint32, lid uint32, dst []sinr.Reception) []sinr.Reception {
	en := &m.rounds[s-1]
	pairs := en.data[en.ntx:]
	if mark == nil {
		return appendPairs(dst, pairs)
	}
	for k := 0; k+1 < len(pairs); k += 2 {
		if mark[pairs[k]] == lid {
			dst = append(dst, sinr.Reception{Receiver: int(pairs[k]), Sender: int(pairs[k+1])})
		}
	}
	return dst
}

// appendPairs decodes (receiver, sender) pairs into dst.
func appendPairs(dst []sinr.Reception, pairs []int32) []sinr.Reception {
	for k := 0; k+1 < len(pairs); k += 2 {
		dst = append(dst, sinr.Reception{Receiver: int(pairs[k]), Sender: int(pairs[k+1])})
	}
	return dst
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

// roundKey is the memo's hash of round (lid, txs).
func roundKey(lid uint32, txs []int) uint64 {
	return intsHash(uint64(lid)*0xc2b2ae3d27d4eb4f+14695981039346656037, txs)
}

// markListeners stamps the members of listener set lid (content listeners)
// in inSet with lid, unless lid is the set stamped last. Stale stamps stay
// exact: a stamp equal to lid was only ever written for a member of lid's
// content, which never changes.
func (e *Env) markListeners(listeners []int, lid uint32) {
	if e.inSetID == lid {
		return
	}
	if e.inSet == nil {
		e.inSet = make([]uint32, len(e.IDs))
	}
	for _, v := range listeners {
		e.inSet[v] = lid
	}
	e.inSetID = lid
}
