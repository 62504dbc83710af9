package flat

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestAdjacencyBuilderStableOrder(t *testing.T) {
	var b AdjacencyBuilder
	b.Reset(5)
	// Deliberately interleave sources: per-node insertion order must survive.
	b.Add(3, 1)
	b.Add(0, 4)
	b.Add(3, 0)
	b.Add(0, 2)
	b.Add(3, 2)
	var a Adjacency
	b.Build(&a, false)
	if got := a.Neighbors(3); !reflect.DeepEqual(got, []int32{1, 0, 2}) {
		t.Errorf("node 3 neighbours = %v, want [1 0 2]", got)
	}
	if got := a.Neighbors(0); !reflect.DeepEqual(got, []int32{4, 2}) {
		t.Errorf("node 0 neighbours = %v, want [4 2]", got)
	}
	for _, v := range []int{1, 2, 4} {
		if a.Degree(v) != 0 {
			t.Errorf("node %d degree = %d, want 0", v, a.Degree(v))
		}
	}
	if a.NumEdges() != 5 || a.N() != 5 {
		t.Errorf("NumEdges=%d N=%d", a.NumEdges(), a.N())
	}
	if i := a.EdgeIndex(3, 0); i < 0 || a.Nbr[i] != 0 {
		t.Errorf("EdgeIndex(3,0) = %d", i)
	}
	if i := a.EdgeIndex(3, 4); i != -1 {
		t.Errorf("EdgeIndex(3,4) = %d, want -1", i)
	}
}

func TestAdjacencyBuilderDedupe(t *testing.T) {
	var b AdjacencyBuilder
	b.Reset(3)
	b.Add(1, 2)
	b.Add(1, 0)
	b.Add(1, 2) // repeat: first occurrence wins
	b.Add(2, 1)
	b.Add(2, 1)
	var a Adjacency
	b.Build(&a, true)
	if got := a.Neighbors(1); !reflect.DeepEqual(got, []int32{2, 0}) {
		t.Errorf("node 1 neighbours = %v, want [2 0]", got)
	}
	if got := a.Neighbors(2); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("node 2 neighbours = %v, want [1]", got)
	}
	if a.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", a.NumEdges())
	}
}

// TestAdjacencyBuilderAgainstMap cross-checks the builder (with and without
// dedupe, reusing the same builder and destination) against a reference map
// implementation on random edge streams.
func TestAdjacencyBuilderAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b AdjacencyBuilder
	var a Adjacency
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(200)
		dedupe := trial%2 == 0
		b.Reset(n)
		ref := make(map[int][]int32, n)
		for e := 0; e < m; e++ {
			v, u := rng.Intn(n), rng.Intn(n)
			b.Add(v, u)
			dup := false
			if dedupe {
				for _, w := range ref[v] {
					if w == int32(u) {
						dup = true
						break
					}
				}
			}
			if !dup {
				ref[v] = append(ref[v], int32(u))
			}
		}
		b.Build(&a, dedupe)
		for v := 0; v < n; v++ {
			got := a.Neighbors(v)
			want := ref[v]
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (dedupe=%v) node %d: got %v want %v", trial, dedupe, v, got, want)
			}
		}
	}
}

// TestAdjacencyReuseDisjointSources rebuilds into the same destination from
// a disjoint set of sources: the previous build's sources must read as
// isolated (the spans of a stale generation are invisible), and dedupe must
// keep first-occurrence order on the reused storage.
func TestAdjacencyReuseDisjointSources(t *testing.T) {
	var b AdjacencyBuilder
	var a Adjacency
	b.Reset(8)
	b.Add(0, 1)
	b.Add(2, 3)
	b.Add(0, 4)
	b.Add(5, 0)
	b.Build(&a, false)
	if got := a.Neighbors(0); !reflect.DeepEqual(got, []int32{1, 4}) {
		t.Fatalf("first build: node 0 neighbours = %v, want [1 4]", got)
	}

	b.Reset(8)
	b.Add(6, 2)
	b.Add(1, 7)
	b.Add(6, 3)
	b.Add(6, 2) // repeat: dropped, first occurrence keeps its place
	b.Add(1, 6)
	b.Add(6, 1)
	b.Build(&a, true)
	for _, v := range []int{0, 2, 5} { // sources of the first build only
		if d := a.Degree(v); d != 0 {
			t.Errorf("stale source %d: degree %d, want 0", v, d)
		}
		if ns := a.Neighbors(v); len(ns) != 0 {
			t.Errorf("stale source %d: neighbours %v, want none", v, ns)
		}
		for u := 0; u < 8; u++ {
			if e := a.EdgeIndex(v, u); e != -1 {
				t.Errorf("stale source %d: EdgeIndex(%d, %d) = %d, want -1", v, v, u, e)
			}
		}
	}
	if got := a.Neighbors(6); !reflect.DeepEqual(got, []int32{2, 3, 1}) {
		t.Errorf("node 6 neighbours = %v, want [2 3 1]", got)
	}
	if got := a.Neighbors(1); !reflect.DeepEqual(got, []int32{7, 6}) {
		t.Errorf("node 1 neighbours = %v, want [7 6]", got)
	}
	if a.NumEdges() != 5 || a.N() != 8 {
		t.Errorf("NumEdges=%d N=%d, want 5 and 8", a.NumEdges(), a.N())
	}
	// Edge indices address Nbr (and the callers' edge-aligned arrays).
	for _, v := range []int{1, 6} {
		lo, hi := a.Span(v)
		for e := lo; e < hi; e++ {
			if got := a.EdgeIndex(v, int(a.Nbr[e])); got != e {
				t.Errorf("EdgeIndex(%d, %d) = %d, want %d", v, a.Nbr[e], got, e)
			}
		}
	}
}

// TestAdjacencyGenerationWrap drives the span generation through its
// wrap-around: a stale span from generation 1 must not resurface when the
// counter comes back to 1.
func TestAdjacencyGenerationWrap(t *testing.T) {
	var b AdjacencyBuilder
	var a Adjacency
	b.Reset(4)
	b.Add(3, 0)
	b.Build(&a, false) // generation 1: node 3 has a span
	a.gen = math.MaxUint32 - 1
	for i := 0; i < 3; i++ { // MaxUint32, then wrap to 1, then 2
		b.Reset(4)
		b.Add(1, 2)
		b.Build(&a, false)
		if d := a.Degree(3); d != 0 {
			t.Fatalf("rebuild %d (gen %d): stale node 3 has degree %d", i, a.gen, d)
		}
		if got := a.Neighbors(1); !reflect.DeepEqual(got, []int32{2}) {
			t.Fatalf("rebuild %d (gen %d): node 1 neighbours = %v, want [2]", i, a.gen, got)
		}
	}
}

func TestBoolStamp(t *testing.T) {
	var s BoolStamp
	s.Reset(4)
	s.Set(1)
	s.Set(3)
	if !s.Has(1) || !s.Has(3) || s.Has(0) || s.Has(2) {
		t.Error("membership after Set")
	}
	s.Unset(3)
	if s.Has(3) {
		t.Error("Unset did not remove")
	}
	s.Reset(4)
	for i := 0; i < 4; i++ {
		if s.Has(i) {
			t.Errorf("Reset leaked membership of %d", i)
		}
	}
	s.Reset(8) // grow
	s.Set(7)
	if !s.Has(7) || s.Has(1) {
		t.Error("membership after grow")
	}
}

func TestInt32Stamp(t *testing.T) {
	var s Int32Stamp
	s.Reset(3)
	s.Set(0, 42)
	if v, ok := s.Get(0); !ok || v != 42 {
		t.Errorf("Get(0) = %d,%v", v, ok)
	}
	if _, ok := s.Get(1); ok {
		t.Error("Get(1) should be unset")
	}
	s.Reset(3)
	if _, ok := s.Get(0); ok {
		t.Error("Reset leaked value")
	}
}

// TestStampGenerationReuse makes sure many Reset cycles never alias an old
// generation (the classic stamp bug class).
func TestStampGenerationReuse(t *testing.T) {
	var s BoolStamp
	for g := 0; g < 1000; g++ {
		s.Reset(3)
		if s.Has(g % 3) {
			t.Fatalf("generation %d leaked", g)
		}
		s.Set(g % 3)
	}
	keys := []int{0, 1, 2}
	sort.Ints(keys) // (keep sort import honest)
	_ = keys
}
