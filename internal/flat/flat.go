// Package flat provides the slice-indexed per-node data structures the
// algorithm layer runs on: a generation-stamped CSR adjacency over dense
// node indices, a counting-sort builder for it, and generation-stamped
// sets/maps that reset in O(1) instead of reallocating. Node handles are
// dense indices into env-sized arrays; every ordering is explicit (ID- or
// index-sorted), never inherited from map iteration.
package flat

// Adjacency is a compressed-sparse-row adjacency structure over n nodes
// whose per-node index is generation-stamped instead of prefix-summed: node
// v's neighbours are one contiguous span of Nbr, recorded only for the nodes
// a build actually saw as sources. A rebuild bumps the generation, so every
// node of the previous build reads as isolated without an O(n) sweep, and a
// build costs O(edges + distinct sources) on storage the caller reuses. The
// per-node order is whatever the builder was fed (the algorithm layer feeds
// ID-sorted lists).
type Adjacency struct {
	Nbr   []int32 // concatenated neighbour lists (node indices)
	spans []span  // per-node neighbour span, valid where gen matches
	gen   uint32
}

// span is one node's neighbour range Nbr[lo:hi], valid in generation gen.
type span struct {
	gen    uint32
	lo, hi int32
}

// reset empties the structure and (re)sizes its node index for n nodes in
// O(1), except when the index grows or the generation wraps around.
func (a *Adjacency) reset(n int) {
	if cap(a.spans) < n {
		a.spans = make([]span, n)
		a.gen = 0
	}
	a.spans = a.spans[:n]
	a.gen++
	if a.gen == 0 { // wrapped: stale spans could alias the new generation
		clear(a.spans)
		a.gen = 1
	}
	a.Nbr = a.Nbr[:0]
}

// N returns the number of nodes the structure is indexed by.
func (a *Adjacency) N() int { return len(a.spans) }

// Span returns the edge-index range [lo, hi) of v's neighbour list: the
// positions in Nbr, and in any edge-aligned array a caller keeps parallel
// to it. A node without neighbours has an empty range.
func (a *Adjacency) Span(v int) (lo, hi int) {
	if s := a.spans[v]; s.gen == a.gen {
		return int(s.lo), int(s.hi)
	}
	return 0, 0
}

// Degree returns the number of neighbours of v.
func (a *Adjacency) Degree(v int) int {
	lo, hi := a.Span(v)
	return hi - lo
}

// Neighbors returns v's neighbour list (shared backing array, read-only).
func (a *Adjacency) Neighbors(v int) []int32 {
	lo, hi := a.Span(v)
	return a.Nbr[lo:hi]
}

// NumEdges returns the total number of stored (directed) edges.
func (a *Adjacency) NumEdges() int { return len(a.Nbr) }

// EdgeIndex returns the position of u in v's neighbour list (an index into
// the edge-aligned arrays callers keep parallel to Nbr), or -1. Linear scan:
// the algorithm layer's degrees are bounded by κ.
func (a *Adjacency) EdgeIndex(v, u int) int {
	lo, hi := a.Span(v)
	for i, w := range a.Nbr[lo:hi] {
		if int(w) == u {
			return lo + i
		}
	}
	return -1
}

// AdjacencyBuilder accumulates (v, u) edges in arbitrary v order and builds
// an Adjacency with a stable counting sort over the distinct sources, so
// each node's neighbour list keeps its insertion order. The builder and the
// built Adjacency are reusable scratch: Build overwrites the destination in
// place.
type AdjacencyBuilder struct {
	n        int
	src, dst []int32
	count    Int32Stamp // per-source edge count
	sources  []int32    // distinct sources, first-occurrence order
}

// Reset prepares the builder for a graph over n nodes, dropping any
// accumulated edges but keeping capacity.
func (b *AdjacencyBuilder) Reset(n int) {
	b.n = n
	b.src = b.src[:0]
	b.dst = b.dst[:0]
	b.sources = b.sources[:0]
	b.count.Reset(n)
}

// Add records the directed edge v → u.
func (b *AdjacencyBuilder) Add(v, u int) {
	b.src = append(b.src, int32(v))
	b.dst = append(b.dst, int32(u))
	c, ok := b.count.Get(v)
	if !ok {
		b.sources = append(b.sources, int32(v))
	}
	b.count.Set(v, c+1)
}

// Len returns the number of edges accumulated so far.
func (b *AdjacencyBuilder) Len() int { return len(b.src) }

// Build assembles the structure into out, reusing its storage. With dedupe
// set, repeated (v, u) pairs keep only the first occurrence — still in
// insertion order.
func (b *AdjacencyBuilder) Build(out *Adjacency, dedupe bool) {
	out.reset(b.n)
	// Spans are laid out in first-occurrence source order; each span's hi
	// is its write cursor during the scatter.
	off := int32(0)
	for _, v := range b.sources {
		c, _ := b.count.Get(int(v))
		out.spans[v] = span{gen: out.gen, lo: off, hi: off}
		off += c
	}
	m := len(b.src)
	if cap(out.Nbr) < m {
		out.Nbr = make([]int32, m)
	}
	out.Nbr = out.Nbr[:m]
	for i, v := range b.src {
		s := &out.spans[v]
		out.Nbr[s.hi] = b.dst[i]
		s.hi++
	}
	if !dedupe {
		return
	}
	// First-occurrence dedupe within each node list, compacting left to
	// right (spans are in Nbr order, so writes never overtake reads).
	w := int32(0)
	for _, v := range b.sources {
		s := &out.spans[v]
		lo, hi := s.lo, s.hi
		s.lo = w
		for i := lo; i < hi; i++ {
			u := out.Nbr[i]
			seen := false
			for j := s.lo; j < w; j++ {
				if out.Nbr[j] == u {
					seen = true
					break
				}
			}
			if !seen {
				out.Nbr[w] = u
				w++
			}
		}
		s.hi = w
	}
	out.Nbr = out.Nbr[:w]
}

// BoolStamp is a generation-stamped boolean set over dense indices: Reset
// is O(1) (a generation bump), membership is one slice access. The zero
// value is ready to use.
type BoolStamp struct {
	stamp []int64
	gen   int64
}

// Reset clears the set and (re)sizes it for n indices.
func (s *BoolStamp) Reset(n int) {
	if cap(s.stamp) < n {
		s.stamp = make([]int64, n)
		s.gen = 0
	}
	s.stamp = s.stamp[:n]
	s.gen++
}

// Set adds i to the set.
func (s *BoolStamp) Set(i int) { s.stamp[i] = s.gen }

// Unset removes i from the set.
func (s *BoolStamp) Unset(i int) { s.stamp[i] = 0 }

// Has reports membership of i.
func (s *BoolStamp) Has(i int) bool { return s.stamp[i] == s.gen }

// Int32Stamp is a generation-stamped map from dense indices to int32
// values with O(1) reset. The zero value is ready to use.
type Int32Stamp struct {
	val   []int32
	stamp []int64
	gen   int64
}

// Reset clears the map and (re)sizes it for n indices.
func (s *Int32Stamp) Reset(n int) {
	if cap(s.stamp) < n {
		s.stamp = make([]int64, n)
		s.val = make([]int32, n)
		s.gen = 0
	}
	s.stamp = s.stamp[:n]
	s.val = s.val[:n]
	s.gen++
}

// Set maps i to v.
func (s *Int32Stamp) Set(i int, v int32) {
	s.val[i] = v
	s.stamp[i] = s.gen
}

// Get returns the value mapped to i and whether one is set.
func (s *Int32Stamp) Get(i int) (int32, bool) {
	if s.stamp[i] != s.gen {
		return 0, false
	}
	return s.val[i], true
}
