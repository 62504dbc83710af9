package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseRef is the plain per-listener scan both dense Deliver cores must
// reproduce bit for bit: gains summed in transmitter order, the strongest
// gain found by a branchy strict > (the first transmitter wins an exact
// tie), then the β threshold.
type denseRef struct {
	tot, best float64
	bestV     int // -1 when no transmitter has a positive gain
}

func denseReference(f *Field, u int, txs []int) denseRef {
	r := denseRef{bestV: -1}
	for _, v := range txs {
		g := f.gain[v][u]
		r.tot += g
		if g > r.best {
			r.best, r.bestV = g, v
		}
	}
	return r
}

func (r denseRef) receives(p Params) bool {
	return r.bestV >= 0 && r.best >= p.Beta*(p.Noise+r.tot-r.best)
}

// TestDenseKernelMatchesReference pins the dense engine's two Deliver cores
// to denseReference: the transposed sweep's accumulators (total, best and
// sender, compared as bit patterns, so a changed summation order or a
// last-wins tie shows even where no reception changes), decide's sender and
// verdict, and Deliver's receptions. |txs| runs from 1 to 13, so every
// remainder of the transposed sweep's four-row blocks occurs. Listener sets
// are all nodes, a subset (which sends rounds of any size through decide)
// and a list that contains transmitters. The fields are integer lattices
// (exactly equidistant transmitters) and a distance-matrix field whose
// distances take four values, so equal gains are everywhere and first-wins
// is pinned.
func TestDenseKernelMatchesReference(t *testing.T) {
	params := DefaultParams()
	type namedField struct {
		name string
		f    *Field
	}
	var fields []namedField
	for _, k := range []int{5, 9} {
		f, err := NewField(params, latticePts(k))
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, namedField{fmt.Sprintf("lattice%d", k), f})
	}
	{
		const n = 60
		rng := rand.New(rand.NewSource(30))
		levels := []float64{0.5, 1, 1.5, 3}
		dist := make([][]float64, n)
		for v := range dist {
			dist[v] = make([]float64, n)
		}
		for v := 0; v < n; v++ {
			for u := v + 1; u < n; u++ {
				d := levels[rng.Intn(len(levels))]
				dist[v][u], dist[u][v] = d, d
			}
		}
		f, err := NewFieldFromDistances(params, dist)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, namedField{"distances", f})
	}

	rng := rand.New(rand.NewSource(1))
	for _, nf := range fields {
		f, n := nf.f, nf.f.N()
		for k := 1; k <= 13; k++ {
			for trial := 0; trial < 4; trial++ {
				txs := rng.Perm(n)[:k] // random order: first-wins depends on it
				isTxRef := make([]bool, n)
				for _, v := range txs {
					isTxRef[v] = true
				}
				var subset, withTx []int
				for u := trial % 3; u < n; u += 3 {
					subset = append(subset, u)
				}
				for u := 0; u < n; u += 2 {
					withTx = append(withTx, u)
				}
				withTx = append(withTx, txs...)
				for li, listeners := range [][]int{nil, subset, withTx} {
					label := fmt.Sprintf("%s/txs=%v/%s", nf.name, txs, []string{"all", "subset", "withTx"}[li])
					order := listeners
					if order == nil {
						order = make([]int, n)
						for u := range order {
							order[u] = u
						}
					}
					var want []Reception
					for _, u := range order {
						if ref := denseReference(f, u, txs); !isTxRef[u] && ref.receives(params) {
							want = append(want, Reception{Receiver: u, Sender: ref.bestV})
						}
					}
					if got := f.Deliver(txs, listeners, nil); !sameReceptions(got, want) {
						t.Fatalf("%s: Deliver = %v, want %v", label, got, want)
					}
					for _, u := range order {
						ref := denseReference(f, u, txs)
						if v, ok := f.decide(u, txs); v != ref.bestV || ok != ref.receives(params) {
							t.Fatalf("%s: decide(%d) = (%d, %v), want (%d, %v)", label, u, v, ok, ref.bestV, ref.receives(params))
						}
					}

					isTx := f.txScratch()
					for _, v := range txs {
						isTx[v] = true
					}
					got, err := f.deliverTransposed(txs, listeners, nil)
					for _, v := range txs {
						isTx[v] = false
					}
					if err != nil {
						t.Fatal(err)
					}
					if !sameReceptions(got, want) {
						t.Fatalf("%s: deliverTransposed = %v, want %v", label, got, want)
					}
					for u := 0; u < n; u++ {
						ref := denseReference(f, u, txs)
						refV := ref.bestV
						if refV < 0 {
							refV = txs[0] // the first row initialises the sender
						}
						if math.Float64bits(f.accTot[u]) != math.Float64bits(ref.tot) ||
							math.Float64bits(f.accBest[u]) != math.Float64bits(ref.best) ||
							int(f.accBestV[u]) != refV {
							t.Fatalf("%s: listener %d accumulated (tot %v, best %v, from %d), want (%v, %v, %d)",
								label, u, f.accTot[u], f.accBest[u], f.accBestV[u], ref.tot, ref.best, refV)
						}
					}
				}
			}
		}
	}
}
