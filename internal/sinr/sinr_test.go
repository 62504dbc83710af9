package sinr

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dcluster/internal/geom"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"defaults valid", func(*Params) {}, false},
		{"alpha too small", func(p *Params) { p.Alpha = 2 }, true},
		{"beta too small", func(p *Params) { p.Beta = 1 }, true},
		{"zero noise", func(p *Params) { p.Noise = 0 }, true},
		{"zero power", func(p *Params) { p.Power = 0 }, true},
		{"eps zero", func(p *Params) { p.Eps = 0 }, true},
		{"eps one", func(p *Params) { p.Eps = 1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestParamsValidateNonFinite rejects every non-finite parameter. NaN fails
// every range comparison, so each field needs an explicit finiteness check;
// +Inf passes the lower-bound tests of α, β, noise and power.
func TestParamsValidateNonFinite(t *testing.T) {
	fields := []struct {
		name string
		ptr  func(*Params) *float64
	}{
		{"Alpha", func(p *Params) *float64 { return &p.Alpha }},
		{"Beta", func(p *Params) *float64 { return &p.Beta }},
		{"Noise", func(p *Params) *float64 { return &p.Noise }},
		{"Power", func(p *Params) *float64 { return &p.Power }},
		{"Eps", func(p *Params) *float64 { return &p.Eps }},
	}
	for _, fld := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s=%v", fld.name, v), func(t *testing.T) {
				p := DefaultParams()
				*fld.ptr(&p) = v
				if err := p.Validate(); err == nil {
					t.Errorf("Validate(%+v) = nil, want an error", p)
				}
			})
		}
	}
}

func TestRangeNormalisation(t *testing.T) {
	p := DefaultParams()
	if r := p.Range(); math.Abs(r-1) > 1e-12 {
		t.Errorf("Range = %v, want 1 (P = β·N normalisation)", r)
	}
	if g := p.GraphRadius(); math.Abs(g-(1-p.Eps)) > 1e-12 {
		t.Errorf("GraphRadius = %v, want %v", g, 1-p.Eps)
	}
}

func pts(coords ...float64) []geom.Point {
	out := make([]geom.Point, 0, len(coords)/2)
	for i := 0; i+1 < len(coords); i += 2 {
		out = append(out, geom.Pt(coords[i], coords[i+1]))
	}
	return out
}

func mustField(t *testing.T, pos []geom.Point) *Field {
	t.Helper()
	f, err := NewField(DefaultParams(), pos)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSingleTransmitterRange(t *testing.T) {
	// Receiver exactly at range 1 decodes; just beyond does not.
	f := mustField(t, pts(0, 0, 1, 0, 1.001, 0))
	recs := f.Deliver([]int{0}, nil, nil)
	got := map[int]bool{}
	for _, r := range recs {
		if r.Sender != 0 {
			t.Fatalf("unexpected sender %d", r.Sender)
		}
		got[r.Receiver] = true
	}
	if !got[1] {
		t.Error("node at distance 1 must receive with no interference")
	}
	if got[2] {
		t.Error("node beyond range must not receive")
	}
}

func TestHalfDuplex(t *testing.T) {
	f := mustField(t, pts(0, 0, 0.5, 0))
	recs := f.Deliver([]int{0, 1}, nil, nil)
	if len(recs) != 0 {
		t.Errorf("two mutual transmitters must not receive, got %v", recs)
	}
}

func TestInterferenceBlocks(t *testing.T) {
	// Receiver between two equidistant transmitters decodes nothing (β>1).
	f := mustField(t, pts(-0.5, 0, 0.5, 0, 0, 0))
	recs := f.Deliver([]int{0, 1}, nil, nil)
	for _, r := range recs {
		if r.Receiver == 2 {
			t.Errorf("equidistant collision must block reception, got %v", r)
		}
	}
}

func TestCaptureEffect(t *testing.T) {
	// A very close transmitter is decoded despite a far interferer.
	f := mustField(t, pts(0, 0, 0.05, 0, 5, 0))
	recs := f.Deliver([]int{0, 2}, nil, nil)
	found := false
	for _, r := range recs {
		if r.Receiver == 1 && r.Sender == 0 {
			found = true
		}
	}
	if !found {
		t.Error("close transmitter must capture the channel over a distant interferer")
	}
}

func TestDeliverListenersSubset(t *testing.T) {
	f := mustField(t, pts(0, 0, 0.5, 0, 0, 0.5))
	recs := f.Deliver([]int{0}, []int{2}, nil)
	if len(recs) != 1 || recs[0].Receiver != 2 {
		t.Errorf("listener subset ignored: %v", recs)
	}
}

func TestSINRMatchesReceives(t *testing.T) {
	pts := geom.UniformSquare(40, 4, 5)
	f := mustField(t, pts)
	txs := []int{0, 7, 13, 21}
	for u := 0; u < f.N(); u++ {
		for _, v := range txs {
			want := sinrOf(f, v, u, txs) >= f.Params().Beta
			isTx := false
			for _, w := range txs {
				if w == u {
					isTx = true
				}
			}
			if isTx {
				want = false
			}
			if got := receivesOf(f, v, u, txs); got != want {
				t.Fatalf("Receives(%d,%d) = %v, want %v", v, u, got, want)
			}
		}
	}
}

func TestDeliverAgreesWithReceives(t *testing.T) {
	pts := geom.UniformSquare(60, 5, 9)
	f := mustField(t, pts)
	txs := []int{1, 5, 9, 30, 44}
	recs := f.Deliver(txs, nil, nil)
	got := map[int]int{}
	for _, r := range recs {
		got[r.Receiver] = r.Sender
	}
	for u := 0; u < f.N(); u++ {
		var wantSender = -1
		for _, v := range txs {
			if receivesOf(f, v, u, txs) {
				wantSender = v
			}
		}
		if s, ok := got[u]; (wantSender >= 0) != ok || (ok && s != wantSender) {
			t.Fatalf("receiver %d: Deliver sender=%v(ok=%v) Receives=%v", u, s, ok, wantSender)
		}
	}
}

func TestMonotoneInDistance(t *testing.T) {
	// Gain decreases with distance (property check).
	p := DefaultParams()
	f := func(d1, d2 float64) bool {
		d1 = 0.01 + math.Abs(math.Mod(d1, 10))
		d2 = 0.01 + math.Abs(math.Mod(d2, 10))
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return gainAt(p, d1) >= gainAt(p, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFewerTransmittersNeverHurts(t *testing.T) {
	// Reception monotonicity: removing interferers preserves successful
	// receptions (the schedule-replay soundness argument in DESIGN.md).
	pts := geom.UniformSquare(50, 5, 13)
	f := mustField(t, pts)
	full := []int{2, 8, 11, 17, 23, 31, 45}
	sub := []int{2, 11, 31}
	for u := 0; u < f.N(); u++ {
		for _, v := range sub {
			if receivesOf(f, v, u, full) && !receivesOf(f, v, u, sub) {
				t.Fatalf("reception %d->%d lost after removing interferers", v, u)
			}
		}
	}
}

func TestNewFieldFromDistances(t *testing.T) {
	d := [][]float64{
		{0, 1, 2},
		{1, 0, 1},
		{2, 1, 0},
	}
	f, err := NewFieldFromDistances(DefaultParams(), d)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Distance(0, 2); math.Abs(got-2) > 1e-9 {
		t.Errorf("Distance(0,2) = %v, want 2", got)
	}
	recs := f.Deliver([]int{0}, nil, nil)
	seen := map[int]bool{}
	for _, r := range recs {
		seen[r.Receiver] = true
	}
	if !seen[1] || seen[2] {
		t.Errorf("distance-matrix reception wrong: %v", recs)
	}
}

func TestNewFieldFromDistancesErrors(t *testing.T) {
	if _, err := NewFieldFromDistances(DefaultParams(), [][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged matrix must error")
	}
	if _, err := NewFieldFromDistances(DefaultParams(), [][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Error("zero off-diagonal distance must error")
	}
	if _, err := NewFieldFromDistances(DefaultParams(), [][]float64{{0, 1, 2}, {1, 0, 1}, {2, 1.5, 0}}); err == nil {
		t.Error("asymmetric matrix must error")
	}
	bad := DefaultParams()
	bad.Alpha = 1
	if _, err := NewFieldFromDistances(bad, [][]float64{{0}}); err == nil {
		t.Error("invalid params must error")
	}
}

func TestCommGraphRadius(t *testing.T) {
	f := mustField(t, pts(0, 0, 0.74, 0, 0.76, 0))
	adj := f.CommGraph()
	// ε = 0.25 ⇒ radius 0.75: edge 0-1 yes, 0-2 no, 1-2 yes.
	hasEdge := func(a, b int) bool {
		for _, x := range adj[a] {
			if x == b {
				return true
			}
		}
		return false
	}
	if !hasEdge(0, 1) || hasEdge(0, 2) || !hasEdge(1, 2) {
		t.Errorf("comm graph wrong: %v", adj)
	}
}

func TestDeliverReusesDst(t *testing.T) {
	f := mustField(t, pts(0, 0, 0.5, 0))
	buf := make([]Reception, 0, 8)
	out := f.Deliver([]int{0}, nil, buf)
	if len(out) != 1 || cap(out) != 8 {
		t.Errorf("dst reuse failed: len=%d cap=%d", len(out), cap(out))
	}
}

func TestEmptyTransmitters(t *testing.T) {
	f := mustField(t, pts(0, 0, 1, 0))
	if out := f.Deliver(nil, nil, nil); len(out) != 0 {
		t.Errorf("no transmitters must mean no receptions, got %v", out)
	}
}
