package sinr

import (
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

func TestPropertyDeliverSubsetListeners(t *testing.T) {
	// Restricting listeners must return exactly the restriction of the
	// full result.
	pts := geom.UniformSquare(40, 4, 11)
	f := mustField(t, pts)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		var txs []int
		for v := 0; v < f.N(); v++ {
			if rng.Float64() < 0.15 {
				txs = append(txs, v)
			}
		}
		full := f.Deliver(txs, nil, nil)
		var some []int
		for v := 0; v < f.N(); v += 3 {
			some = append(some, v)
		}
		part := f.Deliver(txs, some, nil)
		inSome := map[int]bool{}
		for _, v := range some {
			inSome[v] = true
		}
		want := map[int]int{}
		for _, r := range full {
			if inSome[r.Receiver] {
				want[r.Receiver] = r.Sender
			}
		}
		got := map[int]int{}
		for _, r := range part {
			got[r.Receiver] = r.Sender
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d receptions, want %d", trial, len(got), len(want))
		}
		for u, s := range want {
			if got[u] != s {
				t.Fatalf("trial %d: receiver %d sender %d, want %d", trial, u, got[u], s)
			}
		}
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
