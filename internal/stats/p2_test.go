package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestP2MatchesExactQuantiles cross-checks the streaming estimator
// against the exact sorted quantiles on heavy- and light-tailed data.
func TestP2MatchesExactQuantiles(t *testing.T) {
	const n = 200_000
	gens := map[string]func(r *rng.Stream) float64{
		"uniform":     func(r *rng.Stream) float64 { return r.Float64() },
		"exponential": func(r *rng.Stream) float64 { return r.ExpFloat64() },
		"lognormal":   func(r *rng.Stream) float64 { return math.Exp(1.5 * r.NormFloat64()) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			r := rng.New(31)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(r)
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				est := NewP2Quantile(q)
				for _, x := range xs {
					est.Add(x)
				}
				exact := Quantile(xs, q)
				got := est.Value()
				// Tolerance: the P² error is a few multiples of the
				// sampling error of the order statistic itself; 2% relative
				// (plus a floor for near-zero quantiles) is comfortable at
				// this n without being vacuous.
				tol := 0.02*math.Abs(exact) + 1e-3
				if math.Abs(got-exact) > tol {
					t.Errorf("q=%g: P² %v vs exact %v (tol %v)", q, got, exact, tol)
				}
				if est.N() != n {
					t.Errorf("q=%g: N = %d, want %d", q, est.N(), n)
				}
			}
		})
	}
}

// TestP2SmallStreams pins the graceful small-n path: fewer than five
// observations interpolate the buffer exactly.
func TestP2SmallStreams(t *testing.T) {
	p := NewP2Quantile(0.5)
	if !math.IsNaN(p.Value()) {
		t.Error("empty estimator should return NaN")
	}
	p.Add(3)
	if p.Value() != 3 {
		t.Errorf("single observation: %v", p.Value())
	}
	p.Add(1)
	if got := p.Value(); got != 2 {
		t.Errorf("median of {1,3} = %v, want 2", got)
	}
	p.Add(2)
	if got := p.Value(); got != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", got)
	}
}

// TestP2ExactOnSortedInsertion: with exactly five observations the
// estimator is the exact interpolated order statistic.
func TestP2ExactOnSortedInsertion(t *testing.T) {
	p := NewP2Quantile(0.5)
	for _, x := range []float64{5, 1, 4, 2, 3} {
		p.Add(x)
	}
	if got := p.Value(); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}

// TestP2ConstantStream: every estimate on a constant stream must be the
// constant exactly, at every prefix length — the parabolic step must not
// drift markers off a degenerate distribution.
func TestP2ConstantStream(t *testing.T) {
	for _, q := range []float64{0.01, 0.3, 0.5, 0.9, 0.999} {
		p := NewP2Quantile(q)
		for i := 1; i <= 5000; i++ {
			p.Add(42.5)
			if v := p.Value(); v != 42.5 {
				t.Fatalf("q=%v n=%d: constant stream gave %v", q, i, v)
			}
		}
	}
}

// TestP2TwoValuedFuzz hardens the duplicate-heavy edge: on a stream of
// two atoms, P²'s continuous interpolation may place the estimate
// between the atoms, but only near a rank boundary — the estimate must
// be either rank-accurate (its rank interval within a sampling-noise
// band of the target) or value-accurate (a hair off the exact atom).
// Marker heights must stay sorted and the estimate inside [min, max].
func TestP2TwoValuedFuzz(t *testing.T) {
	const n = 4000
	for seed := uint64(0); seed < 60; seed++ {
		r := rng.New(5000 + seed)
		frac := 0.02 + 0.96*r.Float64() // P(hi atom)
		q := 0.05 + 0.9*r.Float64()
		lo, hi := -1.5, 2.5
		p := NewP2Quantile(q)
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := lo
			if r.Float64() < frac {
				x = hi
			}
			p.Add(x)
			xs = append(xs, x)
			if i >= 4 {
				for j := 0; j < 4; j++ {
					if p.heights[j] > p.heights[j+1] {
						t.Fatalf("seed=%d n=%d: marker heights out of order %v", seed, i+1, p.heights)
					}
				}
			}
		}
		v := p.Value()
		if v < lo || v > hi {
			t.Errorf("seed=%d frac=%.3f q=%.3f: estimate %v outside [%v, %v]", seed, frac, q, v, lo, hi)
			continue
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		exact := quantileSorted(sorted, q)
		rankTol := 4*math.Sqrt(n) + 10 // binomial boundary fluctuation
		valueTol := 0.02 * (hi - lo)
		if tdRankErr(sorted, v, q) > rankTol && math.Abs(v-exact) > valueTol {
			t.Errorf("seed=%d frac=%.3f q=%.3f: estimate %v (exact %v) fails both rank (%.1f > %.1f) and value tolerance",
				seed, frac, q, v, exact, tdRankErr(sorted, v, q), rankTol)
		}
	}
}

// TestP2SmallNInterpolation pins the small-n hardening: at n = 5 the
// markers are exact order statistics and Value interpolates them at the
// desired rank, so the estimate is the exact empirical quantile for ANY
// q — the raw center marker would be the median regardless of q.
func TestP2SmallNInterpolation(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, q := range []float64{0.25, 0.5, 0.75} { // 4q integral: bitwise exact
		p := NewP2Quantile(q)
		for _, x := range xs {
			p.Add(x)
		}
		if got, want := p.Value(), Quantile(xs, q); got != want {
			t.Errorf("n=5 q=%v: %v, want exact %v", q, got, want)
		}
	}
	for _, q := range []float64{0.1, 0.37, 0.9, 0.99} { // generic q: same up to rounding
		p := NewP2Quantile(q)
		for _, x := range xs {
			p.Add(x)
		}
		if got, want := p.Value(), Quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("n=5 q=%v: %v, want %v", q, got, want)
		}
	}
	// Growth regime: a tail estimator over 6 ≤ n ≤ 60 must track the
	// empirical quantile within a few ranks, not sit at the median.
	for seed := uint64(0); seed < 40; seed++ {
		r := rng.New(7000 + seed)
		p := NewP2Quantile(0.9)
		xs := xs[:0]
		for i := 0; i < 60; i++ {
			x := r.Float64() * 100
			p.Add(x)
			xs = append(xs, x)
			if i+1 < 6 {
				continue
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			// The markers adapt at most one rank per observation, so the
			// inherent lag grows with the stream; 2 + 0.06·n covers the
			// observed worst case (~4 ranks at n ≈ 60) with slack while
			// still catching a median-stuck estimator (rank error ~0.4·n).
			band := 2 + 0.06*float64(i+1)
			if err := tdRankErr(sorted, p.Value(), 0.9); err > band {
				t.Errorf("seed=%d n=%d: q=0.9 estimate %v has rank error %.1f > %.1f",
					seed, i+1, p.Value(), err, band)
			}
		}
	}
}

func TestP2RejectsBadQuantile(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("q=%v should panic", q)
				}
			}()
			NewP2Quantile(q)
		}()
	}
}

func TestKSTwoSample(t *testing.T) {
	r := rng.New(17)
	a := make([]float64, 4000)
	b := make([]float64, 5000)
	c := make([]float64, 5000)
	for i := range a {
		a[i] = r.ExpFloat64()
	}
	for i := range b {
		b[i] = r.ExpFloat64()
	}
	for i := range c {
		c[i] = r.ExpFloat64() * 1.2 // different scale: should be rejected
	}
	ok, d, err := KSTwoSampleTest(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("same-law samples rejected (D=%v)", d)
	}
	ok, d, err = KSTwoSampleTest(a, c, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("different-scale samples not rejected (D=%v)", d)
	}
	if _, err := KolmogorovSmirnovTwoSample(nil, a); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := KSTwoSampleCriticalValue(0, 1, 0.05); err == nil {
		t.Error("bad sizes should fail")
	}
	if _, err := KSTwoSampleCriticalValue(1, 1, 2); err == nil {
		t.Error("bad alpha should fail")
	}
	// The two-sample statistic against a sample of itself is zero.
	d, err = KolmogorovSmirnovTwoSample(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("self-KS = %v, want 0", d)
	}
}
