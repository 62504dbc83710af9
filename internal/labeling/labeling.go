// Package labeling implements the c-imperfect cluster labeling of Lemma 11:
// given the parent/child forest produced by FullSparsification, it assigns
// every node a label ≤ Γ such that within each cluster every label repeats
// at most c = O(1) times (one tree per surviving root, trees labelled
// 1..size independently).
//
// Subtree sizes are already known (piggybacked on the choose-parent
// messages during sparsification), so only the top-down pass communicates:
// removal batches are replayed in reverse time order, and in each batch
// parents hand each child its label range — one schedule pass per child
// rank, at most κ per batch.
package labeling

import (
	"fmt"
	"sync"

	"dcluster/internal/flat"
	"dcluster/internal/sim"
	"dcluster/internal/sparsify"
)

// Unlabeled marks nodes that did not receive a label.
const Unlabeled int32 = 0

// Result carries the computed labels.
type Result struct {
	// Label[node] ∈ [1..Γ] for every participant, Unlabeled otherwise.
	Label []int32
}

// lbScratch is the pooled working state of one labeling run: the per-batch
// owner grouping and the per-child label ranges, node-indexed with
// generation stamps so each batch resets in O(1).
type lbScratch struct {
	ownerIdx flat.Int32Stamp // parent node → index into owners
	owners   []int           // parents owning children in this batch, ascending
	kids     [][]int         // kids[i]: owners[i]'s batch children, ID-sorted
	kidCount []int32
	senders  []int
	refs     []sparsify.ChildRef // ID-sorted copy of one parent's child list

	// Per-child assigned subrange, computed once per batch instead of once
	// per transmitted message (a parent re-composes its message every
	// scheduled round of a pass, and previously re-sorted its full child
	// list inside each composition).
	start, end flat.Int32Stamp

	rank int // current child rank, read by the message closure
}

var lbPool = sync.Pool{New: func() any { return new(lbScratch) }}

// Run performs the top-down labeling over the forest recorded in st by a
// FullSparsification whose levels are given. Every node of levels.Levels[0]
// receives a label.
func Run(env *sim.Env, st *sparsify.State, levels *sparsify.FullLevels) (*Result, error) {
	n := len(st.Parent)
	label := make([]int32, n)
	// A node's label is the start of the subrange assigned to its subtree;
	// roots start their own ranges at 1.
	for _, r := range levels.Roots(st) {
		label[r] = 1
	}

	sc := lbPool.Get().(*lbScratch)
	defer lbPool.Put(sc)

	// Replay batches newest-first: parents are always labelled before any
	// batch containing their children is processed (children are removed
	// strictly before their parent, so the parent's own label arrives in a
	// strictly later batch — or it is a root).
	for bi := len(st.Batches) - 1; bi >= 0; bi-- {
		b := st.Batches[bi]
		// Group the batch's children by owning parent: owners ascending by
		// node index, each owner's children ID-sorted — the same per-owner
		// lists and global sender order the map-keyed grouping produced.
		sc.ownerIdx.Reset(n)
		sc.owners = sc.owners[:0]
		for _, c := range b.Children {
			p := st.Parent[c]
			if p < 0 {
				return nil, fmt.Errorf("labeling: batch child %d has no parent", c)
			}
			if _, ok := sc.ownerIdx.Get(p); !ok {
				sc.ownerIdx.Set(p, 0)
				sc.owners = append(sc.owners, p)
			}
		}
		insertionSortInts(sc.owners)
		for i, p := range sc.owners {
			sc.ownerIdx.Set(p, int32(i))
			if len(sc.kids) <= i {
				sc.kids = append(sc.kids, nil)
			}
			sc.kids[i] = sc.kids[i][:0]
		}
		maxFan := 0
		for _, c := range b.Children {
			i, _ := sc.ownerIdx.Get(st.Parent[c])
			sc.kids[i] = append(sc.kids[i], c)
			if len(sc.kids[i]) > maxFan {
				maxFan = len(sc.kids[i])
			}
		}

		// Per-owner: ID-sort the batch children and precompute every child's
		// label subrange. A parent keeps its own start, then hands children
		// consecutive blocks of their subtree sizes in ID order over its
		// full recorded child list (children removed in other batches
		// occupy their blocks too, so the walk covers all of them).
		sc.start.Reset(n)
		sc.end.Reset(n)
		for i, p := range sc.owners {
			kids := sc.kids[i]
			insertionSortByID(env, kids)
			sc.refs = append(sc.refs[:0], st.Children[p]...)
			insertionSortRefsByID(env, sc.refs)
			off := int(label[p]) + 1
			for _, r := range sc.refs {
				sc.start.Set(r.Node, int32(off))
				sc.end.Set(r.Node, int32(off+r.Size-1))
				off += r.Size
			}
		}

		msg := func(p int) sim.Msg {
			i, _ := sc.ownerIdx.Get(p)
			child := sc.kids[i][sc.rank]
			s, _ := sc.start.Get(child)
			e, _ := sc.end.Get(child)
			return sim.Msg{
				Kind: sim.KindLabelRange,
				From: int32(env.IDs[p]),
				A:    int32(env.IDs[child]),
				B:    s,
				C:    e,
			}
		}
		for rank := 0; rank < maxFan; rank++ {
			sc.rank = rank
			sc.senders = sc.senders[:0]
			for i, p := range sc.owners {
				if rank < len(sc.kids[i]) {
					sc.senders = append(sc.senders, p)
				}
			}
			for _, d := range b.Sched.Run(env, sc.senders, msg, b.Children, nil) {
				if d.Msg.Kind != sim.KindLabelRange {
					continue
				}
				u := d.Receiver
				if int(d.Msg.A) != env.IDs[u] {
					continue
				}
				if st.Parent[u] != d.Sender {
					continue
				}
				label[u] = d.Msg.B
			}
		}
	}

	// Every participant must be labelled.
	for _, v := range levels.Levels[0] {
		if label[v] == Unlabeled {
			return nil, fmt.Errorf("labeling: node %d (id %d) received no label", v, env.IDs[v])
		}
	}
	return &Result{Label: label}, nil
}

func insertionSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func insertionSortByID(env *sim.Env, xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && env.IDs[xs[j]] < env.IDs[xs[j-1]]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func insertionSortRefsByID(env *sim.Env, xs []sparsify.ChildRef) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && env.IDs[xs[j].Node] < env.IDs[xs[j-1].Node]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
