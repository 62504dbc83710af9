package fault

// Tests for the fault-injection layer in isolation: spec parsing and
// round-tripping, window semantics, the order-independent drop coins, the
// node-outage schedule, and the engine decorator's filtering against a
// hand-computed SINR oracle on both physical engines.

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dcluster/internal/geom"
	"dcluster/internal/sinr"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"seed=42",
		"drop=0.25",
		"drop=0.25@50-300",
		"drop=1@10-",
		"noise=4@100-120",
		"jam=1.5,2,8",
		"jam=0,0,8,0.1,-0.25@10-200",
		"crash=7@50-300",
		"sleep=12@100-200",
		"seed=9;drop=0.1@2-9;noise=2@3-4;jam=1,1,4@5-;crash=0@2-3;sleep=1@4-6",
	}
	for _, in := range cases {
		spec, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		out := spec.String()
		spec2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q): %v", in, out, err)
		}
		if out2 := spec2.String(); out2 != out {
			t.Errorf("%q: round trip %q → %q", in, out, out2)
		}
	}
}

func TestParseVariants(t *testing.T) {
	spec, err := Parse(" seed=3 ; noise=4x@10-20 ; crash=3-5@7- ; drop=0.5@9 ")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 3 {
		t.Errorf("seed = %d", spec.Seed)
	}
	if len(spec.Noise) != 1 || spec.Noise[0].Factor != 4 || spec.Noise[0].From != 10 || spec.Noise[0].To != 20 {
		t.Errorf("noise = %+v", spec.Noise)
	}
	if len(spec.Crashes) != 3 || spec.Crashes[0].Node != 3 || spec.Crashes[2].Node != 5 || spec.Crashes[1].To != 0 {
		t.Errorf("crashes = %+v", spec.Crashes)
	}
	if len(spec.Drops) != 1 || spec.Drops[0].From != 9 || spec.Drops[0].To != 0 {
		t.Errorf("drops = %+v", spec.Drops)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"nonsense",
		"frob=1",
		"seed=abc",
		"seed=1@2-3",
		"drop=x",
		"drop=0.5@9-3",     // empty window
		"drop=0.5@3-3",     // empty window
		"jam=1,2",          // wrong arity
		"jam=1,2,3,4",      // wrong arity
		"crash=5-2",        // empty node range
		"drop=0.5@1-2@3-4", // double window
		"crash=notanumber",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Spec{
		Drops:   []Drop{{P: 0.5}},
		Noise:   []NoiseSpike{{Factor: 2}},
		Jammers: []Jammer{{At: geom.Pt(0, 0), Power: 1}},
		Crashes: []Crash{{Node: 9}},
	}
	if err := ok.Validate(10, true); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Drops: []Drop{{P: 1.5}}},
		{Drops: []Drop{{P: -0.1}}},
		{Noise: []NoiseSpike{{Factor: 0.5}}},
		{Jammers: []Jammer{{Power: 0}}},
		{Crashes: []Crash{{Node: 10}}},
		{Crashes: []Crash{{Node: -1}}},
		{Drops: []Drop{{P: 0.5, Window: Window{From: 5, To: 2}}}},
	}
	for i, s := range bad {
		if err := s.Validate(10, true); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	// Jammers need coordinates.
	if err := ok.Validate(10, false); err == nil {
		t.Error("jammer spec accepted without positions")
	}
}

func TestWindowSemantics(t *testing.T) {
	w := Window{From: 10, To: 20}
	for r, want := range map[int64]bool{9: false, 10: true, 19: true, 20: false, 1: false} {
		if got := w.Active(r); got != want {
			t.Errorf("[10,20).Active(%d) = %v", r, got)
		}
	}
	open := Window{From: 5}
	if open.Active(4) || !open.Active(5) || !open.Active(1<<40) {
		t.Error("open window [5,∞) misbehaves")
	}
	always := Window{}
	if !always.Active(1) || !always.Active(1<<40) {
		t.Error("zero window must always be active")
	}
}

func TestDropCoins(t *testing.T) {
	s := Spec{Seed: 1, Drops: []Drop{{P: 0.5}}}
	// Deterministic: the same triple always lands the same way.
	for r := int64(1); r <= 4; r++ {
		for snd := 0; snd < 4; snd++ {
			for rcv := 0; rcv < 4; rcv++ {
				if s.keep(r, snd, rcv) != s.keep(r, snd, rcv) {
					t.Fatal("drop coin not deterministic")
				}
			}
		}
	}
	// Roughly fair, and sensitive to every key component.
	kept, flips := 0, 0
	s2 := Spec{Seed: 2, Drops: s.Drops}
	n := 0
	for r := int64(1); r <= 50; r++ {
		for snd := 0; snd < 10; snd++ {
			for rcv := 0; rcv < 10; rcv++ {
				n++
				if s.keep(r, snd, rcv) {
					kept++
				}
				if s.keep(r, snd, rcv) != s2.keep(r, snd, rcv) {
					flips++
				}
			}
		}
	}
	if kept < n*35/100 || kept > n*65/100 {
		t.Errorf("p=0.5 kept %d of %d", kept, n)
	}
	if flips < n*35/100 {
		t.Errorf("changing the seed flipped only %d of %d coins", flips, n)
	}
	// Extremes short-circuit exactly.
	all := Spec{Drops: []Drop{{P: 1}}}
	none := Spec{Drops: []Drop{{P: 0}}}
	if all.keep(1, 0, 1) || !none.keep(1, 0, 1) {
		t.Error("p=1 / p=0 extremes wrong")
	}
	// Outside the window nothing drops.
	windowed := Spec{Drops: []Drop{{P: 1, Window: Window{From: 10, To: 20}}}}
	if !windowed.keep(9, 0, 1) || windowed.keep(10, 0, 1) {
		t.Error("drop window ignored")
	}
}

// TestDropCoinsHoisted pins the per-round hoisted coins Filter uses to the
// reference keep, over overlapping windows with P ∈ {0, 0.05, 1}.
func TestDropCoinsHoisted(t *testing.T) {
	s := Spec{Seed: 7, Drops: []Drop{
		{P: 0.05, Window: Window{From: 1, To: 40}},
		{P: 0.05, Window: Window{From: 20, To: 60}},
		{P: 0, Window: Window{From: 10, To: 50}},
		{P: 1, Window: Window{From: 45, To: 50}},
	}}
	dropped := 0
	keys := s.dropKeys()
	for r := int64(1); r <= 70; r++ {
		coins, all := s.dropCoins(r, keys, nil)
		for snd := 0; snd < 12; snd++ {
			for rcv := 0; rcv < 12; rcv++ {
				want := s.keep(r, snd, rcv)
				if got := !all && kept(coins, snd, rcv); got != want {
					t.Fatalf("round %d, %d→%d: hoisted coin keeps=%v, keep=%v", r, snd, rcv, got, want)
				}
				if !want {
					dropped++
				}
			}
		}
	}
	// 5 rounds drop everything; the P=0.05 windows drop a few more.
	if dropped <= 5*144 {
		t.Errorf("only %d receptions dropped", dropped)
	}
}

// TestDropBelowMatchesFloat pins kept's integer coin test, k < ⌈p·2⁵³⌉,
// to keep's float one, k·2⁻⁵³ < p, for 53-bit coins k: random k and the k
// at and around the threshold, for p = 0.05, a p with p·2⁵³ integral (the
// threshold itself must keep), p just above 0 and p just below 1.
func TestDropBelowMatchesFloat(t *testing.T) {
	const two53 = 1 << 53
	for _, p := range []float64{
		0.05,
		0.375,           // p·2⁵³ = 3·2⁵⁰, an integer
		12345.0 / two53, // p·2⁵³ = 12345
		math.Nextafter(0, 1),
		1e-300,
		math.Nextafter(1, 0),
	} {
		below := dropBelow(p)
		ks := []uint64{0, 1, two53 - 1}
		if below > 0 {
			ks = append(ks, below-1, below)
		}
		if below+1 < two53 {
			ks = append(ks, below+1)
		}
		x := uint64(p * 1e6)
		for range 10000 {
			x = mix64(x)
			ks = append(ks, x>>11)
		}
		for _, k := range ks {
			if got, want := k < below, float64(k)*(1.0/two53) < p; got != want {
				t.Fatalf("p=%v (below %d), k=%d: integer test %v, float test %v", p, below, k, got, want)
			}
		}
	}
}

func TestNoiseAndJamState(t *testing.T) {
	s := Spec{
		Noise: []NoiseSpike{
			{Factor: 2, Window: Window{From: 10, To: 20}},
			{Factor: 3, Window: Window{From: 15, To: 16}},
		},
		Jammers: []Jammer{{At: geom.Pt(1, 0), Vel: geom.Pt(1, 0), Power: 8, Window: Window{From: 10, To: 20}}},
	}
	if f := s.noiseFactorAt(9); f != 1 {
		t.Errorf("noise factor before window = %v", f)
	}
	if f := s.noiseFactorAt(12); f != 2 {
		t.Errorf("noise factor in window = %v", f)
	}
	if f := s.noiseFactorAt(15); f != 6 {
		t.Errorf("overlapping spikes must compound: %v", f)
	}
	p := sinr.DefaultParams()
	if g := s.jamGain(9, geom.Pt(0, 0), p); g != 0 {
		t.Errorf("jam gain before window = %v", g)
	}
	// At round 10 the jammer sits at (1,0): distance 1 from the origin, so
	// the received power is exactly its Power (gain = P/d^α at d=1).
	if g := s.jamGain(10, geom.Pt(0, 0), p); math.Abs(g-8) > 1e-12 {
		t.Errorf("jam gain at spawn = %v, want 8", g)
	}
	// At round 12 it has drifted to (3,0): 8/27 at the origin.
	if g := s.jamGain(12, geom.Pt(0, 0), p); math.Abs(g-8.0/27) > 1e-12 {
		t.Errorf("jam gain after drift = %v, want %v", g, 8.0/27)
	}
}

func TestNodeFaultSchedule(t *testing.T) {
	s := Spec{Crashes: []Crash{
		{Node: 3, Window: Window{From: 10, To: 20}},
		{Node: 5, Window: Window{From: 30, To: 40}, Sleep: true},
		{Node: 7, Window: Window{From: 15}},
	}}
	if s.Down(3, 9) || !s.Down(3, 10) || !s.Down(3, 19) || s.Down(3, 20) {
		t.Error("crash window wrong")
	}
	if !s.AnyDown(35) || s.AnyDown(5) {
		t.Error("AnyDown wrong")
	}
	if s.Down(7, 14) || !s.Down(7, 1<<40) {
		t.Error("open-ended crash must never restart")
	}
	rs := s.Restarts()
	// Only the closed, non-sleep window restarts: node 3 at round 20.
	if len(rs) != 1 || rs[0].Node != 3 || rs[0].Round != 20 {
		t.Errorf("Restarts() = %+v", rs)
	}
}

// engines builds a dense and a sparse engine over the same points.
func engines(t *testing.T, pts []geom.Point) []sinr.Engine {
	t.Helper()
	p := sinr.DefaultParams()
	dense, err := sinr.NewField(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := sinr.NewSparseField(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	return []sinr.Engine{dense, sparse}
}

func TestEngineDecorator(t *testing.T) {
	pts := geom.UniformDisk(40, 2, 11)
	spec := Spec{
		Seed:    5,
		Drops:   []Drop{{P: 0.4, Window: Window{From: 3, To: 8}}},
		Noise:   []NoiseSpike{{Factor: 3, Window: Window{From: 5, To: 6}}},
		Jammers: []Jammer{{At: geom.Pt(0, 0), Power: 16, Window: Window{From: 7, To: 9}}},
	}
	if err := spec.Validate(len(pts), true); err != nil {
		t.Fatal(err)
	}
	engs := engines(t, pts)
	txs := []int{0, 7, 19, 33}

	var prev [][]sinr.Reception
	for ei, inner := range engs {
		wrapped := Wrap(inner, &spec)
		var perRound [][]sinr.Reception
		for r := int64(1); r <= 10; r++ {
			// Oracle: recompute the surviving subset of the inner engine's
			// receptions by the SINR definition with faults applied.
			base := inner.Deliver(txs, nil, nil)
			kept := slices.Clone(base)
			got := wrapped.Filter(r, txs, base, nil)
			if !slices.Equal(base, kept) {
				t.Fatalf("engine %d round %d: Filter wrote to its input", ei, r)
			}
			if again := wrapped.Deliver(txs, nil, nil); !slices.Equal(again, got) {
				t.Fatalf("engine %d round %d: Deliver after Filter = %v, Filter %v", ei, r, again, got)
			}
			var want []sinr.Reception
			p := inner.Params()
			noiseF, jamming := spec.noiseFactorAt(r), spec.jammingAt(r)
			for _, rec := range base {
				if noiseF > 1 || jamming {
					interference := 0.0
					for _, w := range txs {
						if w != rec.Sender {
							interference += inner.Gain(w, rec.Receiver)
						}
					}
					interference += spec.jamGain(r, pts[rec.Receiver], p)
					if inner.Gain(rec.Sender, rec.Receiver) < p.Beta*(noiseF*p.Noise+interference) {
						continue
					}
				}
				if !spec.keep(r, rec.Sender, rec.Receiver) {
					continue
				}
				want = append(want, rec)
			}
			if len(got) != len(want) {
				t.Fatalf("engine %d round %d: got %d receptions, oracle %d", ei, r, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("engine %d round %d: reception %d = %+v, oracle %+v", ei, r, i, got[i], want[i])
				}
			}
			perRound = append(perRound, append([]sinr.Reception(nil), got...))
		}
		if prev != nil {
			for r := range perRound {
				if len(perRound[r]) != len(prev[r]) {
					t.Fatalf("round %d: engines disagree under faults (%d vs %d receptions)", r+1, len(perRound[r]), len(prev[r]))
				}
				for i := range perRound[r] {
					if perRound[r][i] != prev[r][i] {
						t.Fatalf("round %d reception %d: engines disagree (%+v vs %+v)", r+1, i, perRound[r][i], prev[r][i])
					}
				}
			}
		}
		prev = perRound
	}
}

func TestEngineDecoratorZeroFaultIdentity(t *testing.T) {
	pts := geom.UniformDisk(30, 2, 4)
	spec := Spec{Seed: 1, Drops: []Drop{{P: 0.9, Window: Window{From: 100, To: 200}}}}
	for _, inner := range engines(t, pts) {
		wrapped := Wrap(inner, &spec)
		txs := []int{1, 2, 17}
		want := inner.Deliver(txs, nil, nil)
		got := wrapped.Filter(50, txs, want, nil) // outside every window
		if len(got) != len(want) {
			t.Fatalf("inactive faults changed the reception count: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("inactive faults changed reception %d", i)
			}
		}
	}
}

func TestEngineDecoratorDropAll(t *testing.T) {
	pts := geom.UniformDisk(20, 2, 9)
	spec := Spec{Drops: []Drop{{P: 1}}}
	for _, inner := range engines(t, pts) {
		wrapped := Wrap(inner, &spec)
		txs := []int{0, 5}
		if got := wrapped.Filter(1, txs, inner.Deliver(txs, nil, nil), nil); len(got) != 0 {
			t.Fatalf("p=1 drop let %d receptions through", len(got))
		}
	}
}

func TestEngineDecoratorSessionIndependence(t *testing.T) {
	pts := geom.UniformDisk(25, 2, 6)
	spec := Spec{Noise: []NoiseSpike{{Factor: 10, Window: Window{From: 2, To: 3}}}}
	inner := engines(t, pts)[0]
	wrapped := Wrap(inner, &spec)
	sess := wrapped.Session()
	txs := []int{3}
	base := inner.Deliver(txs, nil, nil)
	wrapped.Filter(2, txs, base, nil)                 // noisy round on the parent...
	sess.(sinr.RoundFilter).Filter(1, txs, base, nil) // ...quiet round on the session
	if got := sess.Deliver(txs, nil, nil); len(got) != len(base) {
		t.Error("session inherited the parent's round state")
	}
	if got := wrapped.Deliver(txs, nil, nil); len(got) == len(base) && len(base) > 0 {
		t.Error("10x noise spike removed nothing")
	}
}

func TestStringEmpty(t *testing.T) {
	var s Spec
	if !s.Empty() || s.EngineFaults() || s.HasNodeFaults() {
		t.Error("zero Spec must be empty")
	}
	if out := s.String(); out != "" {
		t.Errorf("zero Spec prints %q", out)
	}
	if !strings.Contains((&Spec{Seed: 3}).String(), "seed=3") {
		t.Error("seed missing from String")
	}
}
