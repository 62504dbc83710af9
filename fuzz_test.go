package dcluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzNetworkRun drives the public API with small point sets on both
// engines. A set has 1–64 points drawn from a seed over a square whose side
// the scale byte picks between 0.25 and 16.2 (tiny sides pack every node
// into one transmission range), optionally with its first half moved onto
// one evenly spaced row (equal distances, hence exact gain ties) and with
// its last point an exact copy of another. Either NewNetwork rejects the set
// on both engines with the same error, or clustering runs on both and gives
// identical Results (Stats, clusters, centres, phase marks) and error text,
// and never ErrInternal.
func FuzzNetworkRun(f *testing.F) {
	f.Add(uint64(1), uint8(24), uint8(40), uint8(0))
	f.Add(uint64(2), uint8(63), uint8(0), uint8(0))   // 64 nodes within a quarter range
	f.Add(uint64(3), uint8(40), uint8(255), uint8(1)) // spread out, a collinear row
	f.Add(uint64(4), uint8(30), uint8(20), uint8(2))  // an exact duplicate
	f.Add(uint64(5), uint8(63), uint8(12), uint8(3))  // a row and a duplicate
	f.Add(uint64(6), uint8(0), uint8(90), uint8(0))   // one node
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, scaleRaw, shape uint8) {
		n := 1 + int(nRaw)%64
		side := 0.25 + float64(scaleRaw)/16
		rng := rand.New(rand.NewSource(int64(seed)))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(side*rng.Float64(), side*rng.Float64())
		}
		if shape&1 != 0 {
			for i := 0; i < n/2; i++ {
				pts[i] = Pt(float64(i)*side/float64(n), pts[0].Y)
			}
		}
		if shape&2 != 0 && n >= 2 {
			pts[n-1] = pts[int(seed%uint64(n-1))]
		}

		var res [2]*Result
		var errs [2]error
		for i, kind := range []EngineKind{EngineDense, EngineSparse} {
			net, err := NewNetwork(pts, WithEngine(kind))
			if err != nil {
				errs[i] = err
				continue
			}
			res[i], errs[i] = net.Run(context.Background(), Clustering())
			if errors.Is(errs[i], ErrInternal) {
				t.Fatalf("%s engine: %v", kind, errs[i])
			}
		}
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("errors differ: dense %v, sparse %v", errs[0], errs[1])
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("results differ: dense %+v, sparse %+v", res[0], res[1])
		}
	})
}
