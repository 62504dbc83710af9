package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dcluster/internal/geom"
)

// Property tests on the physical layer, complementing the unit tests in
// sinr_test.go.

func TestPropertyAddingInterfererNeverHelps(t *testing.T) {
	pts := geom.UniformSquare(30, 4, 99)
	f := mustField(t, pts)
	prop := func(vSeed, uSeed, wSeed uint8, extra uint16) bool {
		v := int(vSeed) % f.N()
		u := int(uSeed) % f.N()
		w := int(wSeed) % f.N()
		if v == u || w == v || w == u {
			return true
		}
		base := []int{v}
		if receivesOf(f, v, u, append(base, w)) && !receivesOf(f, v, u, base) {
			return false // adding interference created a reception
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertySINRSymmetricGain(t *testing.T) {
	pts := geom.UniformSquare(25, 4, 7)
	f := mustField(t, pts)
	for v := 0; v < f.N(); v++ {
		for u := v + 1; u < f.N(); u++ {
			if f.Gain(v, u) != f.Gain(u, v) {
				t.Fatalf("gain not symmetric for %d,%d", v, u)
			}
		}
	}
}

// TestPropertyDeliverSubsetListeners pins the invariant that lets an
// addressed round be served from the outcome of its enclosing listener set:
// for transmitters T, an enclosing set W (explicit or nil = everyone) and a
// subsequence L of W, Deliver(T, W) restricted to the receivers in L equals
// Deliver(T, L), in the same order. Reception at a listener depends only on
// T, and every path emits in listener order; the sweep crosses paths on
// purpose (the dense engine's transposed, marked and transmitter-centric
// cores; the sparse engine's direct scan and its grid sweep, serial and on
// four stripe workers), since the restricted call often takes another path
// than the full one.
//
// The sparse row names are kept from when the engine had two grid paths.
// The accum rows run the default field, the grid rows a field whose corner
// pins quadruple the cell side (window span 1, where the out-of-window
// bounds and the exact out-of-window walk carry more of the decisions), and
// the auto row a session view of the default field.
func TestPropertyDeliverSubsetListeners(t *testing.T) {
	n := 800
	pts := geom.UniformDisk(n, math.Sqrt(float64(n)/8), 41)
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	type engine struct {
		name    string
		f       Engine
		setup   func()
		cleanup func()
	}
	coarse, err := NewSparseField(params, withCornerPins(pts, params.Range(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if coarse.span != 1 {
		t.Fatalf("coarse field window span %d, want 1", coarse.span)
	}
	session := sparse.Session().(*SparseField)
	sparseWith := func(name string, f *SparseField, w int) engine {
		workers := f.workers
		return engine{name, f,
			func() { f.workers = w },
			func() { f.workers = workers }}
	}
	engines := []engine{
		{"dense", dense, func() {}, func() {}},
		sparseWith("sparse/auto/serial", session, 1),
		sparseWith("sparse/grid/serial", coarse, 1),
		sparseWith("sparse/accum/serial", sparse, 1),
		sparseWith("sparse/grid/parallel", coarse, 4),
		sparseWith("sparse/accum/parallel", sparse, 4),
	}

	rng := rand.New(rand.NewSource(43))
	subsequence := func(of []int, keep float64) []int {
		l := []int{}
		for _, v := range of {
			if rng.Float64() < keep {
				l = append(l, v)
			}
		}
		return l
	}
	received := 0
	everyone := make([]int, n)
	for v := range everyone {
		everyone[v] = v
	}
	for _, ntx := range []int{1, 4, 30, 48, 49, 120, 400} {
		for _, wKind := range []string{"nil", "half", "random"} {
			var within []int
			switch wKind {
			case "half":
				for v := 0; v < n; v += 2 {
					within = append(within, v)
				}
			case "random":
				within = subsequence(everyone, 0.6)
			}
			txs := pickDistinct(rng, n, ntx)
			enclosing := within
			if enclosing == nil {
				enclosing = everyone
			}
			for _, keep := range []float64{0.02, 0.25, 0.9} {
				listeners := subsequence(enclosing, keep)
				inL := make([]bool, n)
				for _, u := range listeners {
					inL[u] = true
				}
				for _, e := range engines {
					t.Run(fmt.Sprintf("T=%d/W=%s/keep=%v/%s", ntx, wKind, keep, e.name), func(t *testing.T) {
						e.setup()
						defer e.cleanup()
						var want []Reception
						for _, r := range e.f.Deliver(txs, within, nil) {
							if inL[r.Receiver] {
								want = append(want, r)
							}
						}
						got := e.f.Deliver(txs, listeners, nil)
						received += len(got)
						if !sameReceptions(want, got) {
							t.Fatalf("|L|=%d: filtered enclosing outcome %v, restricted Deliver %v", len(listeners), want, got)
						}
					})
				}
			}
		}
	}
	if received == 0 {
		t.Fatal("no listener received anything; the sweep checks nothing")
	}
}

func TestPropertyAtMostOneDecodablePerReceiver(t *testing.T) {
	// β > 1 ⇒ per round a receiver decodes at most one sender; exhaustively
	// verify against the SINR definition.
	pts := geom.UniformSquare(30, 3, 13)
	f := mustField(t, pts)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		var txs []int
		for v := 0; v < f.N(); v++ {
			if rng.Float64() < 0.2 {
				txs = append(txs, v)
			}
		}
		for u := 0; u < f.N(); u++ {
			decodable := 0
			for _, v := range txs {
				if receivesOf(f, v, u, txs) {
					decodable++
				}
			}
			if decodable > 1 {
				t.Fatalf("receiver %d decodes %d senders with β>1", u, decodable)
			}
		}
	}
}

func TestPropertyRangeBoundary(t *testing.T) {
	// Solo sender: reception iff distance ≤ range (= 1 with defaults).
	prop := func(dRaw uint16) bool {
		d := 0.05 + float64(dRaw%2000)/1000.0 // (0.05, 2.05)
		f, err := NewField(DefaultParams(), []geom.Point{geom.Pt(0, 0), geom.Pt(d, 0)})
		if err != nil {
			return false
		}
		got := receivesOf(f, 0, 1, []int{0})
		return got == (d <= 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
