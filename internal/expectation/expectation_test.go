package expectation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func mustModel(t *testing.T, lambda, d float64) Model {
	t.Helper()
	m, err := NewModel(lambda, d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(0, 0); err == nil {
		t.Error("λ = 0 should be rejected")
	}
	if _, err := NewModel(-1, 0); err == nil {
		t.Error("λ < 0 should be rejected")
	}
	if _, err := NewModel(1, -1); err == nil {
		t.Error("D < 0 should be rejected")
	}
	if _, err := NewModel(math.Inf(1), 0); err == nil {
		t.Error("infinite λ should be rejected")
	}
	if _, err := NewModel(0.1, 2); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestProposition1ClosedForm(t *testing.T) {
	// Hand-checked value: λ=0.1, D=1, W=10, C=1, R=2.
	m := mustModel(t, 0.1, 1)
	got := m.ExpectedTime(10, 1, 2)
	want := math.Exp(0.2) * (10 + 1) * (math.Exp(1.1) - 1)
	if !numeric.AlmostEqual(got, want, 1e-12) {
		t.Errorf("E[T] = %v, want %v", got, want)
	}
}

func TestClosedFormEqualsRecursion(t *testing.T) {
	// Proposition 1's factored form must equal the Eq. 3 recursion.
	lambdas := []float64{1e-6, 1e-3, 0.01, 0.1, 1}
	for _, l := range lambdas {
		for _, d := range []float64{0, 0.5, 5} {
			m := mustModel(t, l, d)
			for _, w := range []float64{0.1, 1, 50, 500} {
				for _, c := range []float64{0, 0.1, 3} {
					for _, r := range []float64{0, 0.2, 4} {
						a := m.ExpectedTime(w, c, r)
						b := m.ExpectedTimeRecursion(w, c, r)
						if !numeric.AlmostEqual(a, b, 1e-9) {
							t.Errorf("λ=%v D=%v W=%v C=%v R=%v: closed %v ≠ recursion %v", l, d, w, c, r, a, b)
						}
					}
				}
			}
		}
	}
}

func TestExpectedTimeLimits(t *testing.T) {
	m := mustModel(t, 1e-9, 0)
	// As λ → 0, E[T] → W + C.
	got := m.ExpectedTime(100, 5, 3)
	if math.Abs(got-105) > 1e-4 {
		t.Errorf("small-λ limit: E[T] = %v, want ≈ 105", got)
	}
	// Overflow regime returns +Inf, not NaN or panic.
	m2 := mustModel(t, 1, 0)
	if got := m2.ExpectedTime(1e4, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("overflow regime: %v, want +Inf", got)
	}
}

func TestExpectedTimeMonotoneInW(t *testing.T) {
	m := mustModel(t, 0.05, 0.1)
	prev := 0.0
	for _, w := range numeric.Linspace(0.1, 100, 200) {
		e := m.ExpectedTime(w, 1, 1)
		if e <= prev {
			t.Fatalf("E[T] not increasing at W=%v", w)
		}
		prev = e
	}
}

func TestExpectedLost(t *testing.T) {
	m := mustModel(t, 0.1, 0)
	// Eq. 4 direct evaluation.
	w, c := 10.0, 1.0
	x := m.Lambda * (w + c)
	want := 1/m.Lambda - (w+c)/(math.Exp(x)-1)
	if got := m.ExpectedLost(w, c); !numeric.AlmostEqual(got, want, 1e-12) {
		t.Errorf("E[Tlost] = %v, want %v", got, want)
	}
	// E[Tlost] < W+C always, and → (W+C)/2 as λ→0.
	m2 := mustModel(t, 1e-8, 0)
	if got := m2.ExpectedLost(10, 0); math.Abs(got-5) > 1e-4 {
		t.Errorf("small-λ lost = %v, want ≈ 5", got)
	}
	if got := m.ExpectedLost(0, 0); got != 0 {
		t.Errorf("lost with no work = %v", got)
	}
}

func TestExpectedRecovery(t *testing.T) {
	m := mustModel(t, 0.2, 3)
	r := 2.0
	want := 3*math.Exp(0.4) + (math.Exp(0.4)-1)/0.2
	if got := m.ExpectedRecovery(r); !numeric.AlmostEqual(got, want, 1e-12) {
		t.Errorf("E[Trec] = %v, want %v", got, want)
	}
	// R = 0: only the downtime remains.
	if got := m.ExpectedRecovery(0); !numeric.AlmostEqual(got, 3, 1e-12) {
		t.Errorf("E[Trec] with R=0 = %v, want 3", got)
	}
}

func TestAlwaysRecoverOverestimates(t *testing.T) {
	// The Bouguerra et al. formula must strictly exceed the exact one
	// whenever R > 0 (the first attempt pays a recovery it shouldn't).
	m := mustModel(t, 0.05, 0.5)
	for _, w := range []float64{1, 10, 100} {
		for _, r := range []float64{0.5, 2, 10} {
			exact := m.ExpectedTime(w, 1, r)
			flawed := m.ExpectedTimeAlwaysRecover(w, 1, r)
			if flawed <= exact {
				t.Errorf("W=%v R=%v: flawed %v should exceed exact %v", w, r, flawed, exact)
			}
		}
	}
	// And agree when R = 0.
	exact := m.ExpectedTime(10, 1, 0)
	flawed := m.ExpectedTimeAlwaysRecover(10, 1, 0)
	if !numeric.AlmostEqual(exact, flawed, 1e-12) {
		t.Errorf("R=0: exact %v ≠ flawed %v", exact, flawed)
	}
}

func TestYoungDalyPeriods(t *testing.T) {
	c, lambda := 0.1, 1e-3
	young := YoungPeriod(c, lambda)
	if math.Abs(young-math.Sqrt(2*c/lambda)) > 1e-12 {
		t.Errorf("Young = %v", young)
	}
	daly := DalyPeriod(c, lambda)
	// Daly refines Young; they agree to first order.
	if math.Abs(daly-young)/young > 0.2 {
		t.Errorf("Daly %v too far from Young %v", daly, young)
	}
	// Degenerate regime: C ≥ 2·MTBF pins the period at the MTBF.
	if got := DalyPeriod(10, 1); got != 1 {
		t.Errorf("Daly degenerate = %v, want MTBF", got)
	}
}

func TestOptimalChunkStationarity(t *testing.T) {
	// The optimal chunk length must satisfy (1−λW)e^{λW} = e^{−λC}.
	for _, lambda := range []float64{1e-4, 1e-2, 0.5} {
		for _, c := range []float64{0.01, 0.3, 5} {
			w, err := OptimalChunk(c, lambda)
			if err != nil {
				t.Fatalf("OptimalChunk(%v, %v): %v", c, lambda, err)
			}
			if w <= 0 {
				t.Fatalf("chunk must be positive, got %v", w)
			}
			u := lambda * w
			lhs := (1 - u) * math.Exp(u)
			rhs := math.Exp(-lambda * c)
			if !numeric.AlmostEqual(lhs, rhs, 1e-8) {
				t.Errorf("λ=%v C=%v: stationarity %v ≠ %v", lambda, c, lhs, rhs)
			}
		}
	}
}

func TestOptimalChunkCount(t *testing.T) {
	m := mustModel(t, 0.01, 0.2)
	wTotal, c, r := 1000.0, 0.5, 0.5
	best, bestE, err := m.OptimalChunkCount(wTotal, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if best < 1 {
		t.Fatalf("chunk count %d", best)
	}
	// The integer optimum must beat its neighbors.
	for _, mm := range []int{best - 1, best + 1} {
		if mm < 1 {
			continue
		}
		if e := m.EqualChunkMakespan(wTotal, c, r, mm); e < bestE {
			t.Errorf("neighbor m=%d has %v < optimum %v", mm, e, bestE)
		}
	}
	if _, _, err := m.OptimalChunkCount(-5, c, r); err == nil {
		t.Error("negative work should fail")
	}
}

func TestEqualChunkConvexInCount(t *testing.T) {
	m := mustModel(t, 0.02, 0)
	var ys []float64
	for k := 1; k <= 60; k++ {
		ys = append(ys, m.EqualChunkMakespan(500, 1, 1, k))
	}
	// The sequence decreases to the optimum then increases (discrete
	// convexity of m ↦ m(e^{λ(W/m+C)}−1)).
	minIdx := 0
	for i, y := range ys {
		if y < ys[minIdx] {
			minIdx = i
		}
	}
	for i := 1; i <= minIdx; i++ {
		if ys[i] > ys[i-1] {
			t.Fatalf("not decreasing before optimum at k=%d", i+1)
		}
	}
	for i := minIdx + 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Fatalf("not increasing after optimum at k=%d", i+1)
		}
	}
}

func TestPeriodMakespan(t *testing.T) {
	m := mustModel(t, 0.01, 0.1)
	// Period ≥ total work: a single chunk.
	single := m.PeriodMakespan(100, 1, 1, 200)
	direct := m.ExpectedTime(100, 1, 1)
	if !numeric.AlmostEqual(single, direct, 1e-12) {
		t.Errorf("single-chunk period = %v, want %v", single, direct)
	}
	// Exact optimal period (from the Lambert chunk) cannot lose to Young
	// or Daly by more than a whisker, and the optimum over equal chunks
	// lower-bounds all periods.
	_, bestE, err := m.OptimalChunkCount(100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, per := range []float64{YoungPeriod(1, 0.01), DalyPeriod(1, 0.01)} {
		if e := m.PeriodMakespan(100, 1, 1, per); e < bestE-1e-9 {
			t.Errorf("period %v beats the equal-chunk optimum: %v < %v", per, e, bestE)
		}
	}
	if !math.IsInf(m.PeriodMakespan(100, 1, 1, 0), 1) {
		t.Error("non-positive period should be +Inf")
	}
}

func TestProofGDerivatives(t *testing.T) {
	lambda, w, c := 0.05, 200.0, 2.0
	// Numerical derivative check of g'.
	for _, mm := range []float64{2, 5, 10, 20} {
		h := 1e-5
		num := (ProofG(lambda, w, c, mm+h) - ProofG(lambda, w, c, mm-h)) / (2 * h)
		ana := ProofGPrime(lambda, w, c, mm)
		if !numeric.AlmostEqual(num, ana, 1e-4) {
			t.Errorf("g'(%v): numeric %v vs analytic %v", mm, num, ana)
		}
		if ProofGDoublePrime(lambda, w, c, mm) <= 0 {
			t.Errorf("g'' must be positive at m=%v", mm)
		}
	}
	if !math.IsInf(ProofG(lambda, w, c, 0), 1) {
		t.Error("g(0) should be +Inf")
	}
}

func TestReductionRiggedStationarity(t *testing.T) {
	// Under λ = 1/(2T) and C = (ln2 − ½)/λ the proof shows g'(n) = 0 for
	// W = nT: the equal-chunk count n is exactly stationary.
	tVal := 120.0
	lambda := 1 / (2 * tVal)
	c := (math.Ln2 - 0.5) / lambda
	n := 7.0
	if got := ProofGPrime(lambda, n*tVal, c, n); math.Abs(got) > 1e-10 {
		t.Errorf("g'(n) = %v, want 0", got)
	}
	// e^{λ(T+C)} = 2 exactly.
	if got := math.Exp(lambda * (tVal + c)); !numeric.AlmostEqual(got, 2, 1e-12) {
		t.Errorf("e^{λ(T+C)} = %v, want 2", got)
	}
}

func TestExpectedTimePositiveProperty(t *testing.T) {
	f := func(lRaw, wRaw, cRaw, rRaw, dRaw float64) bool {
		lambda := math.Abs(math.Mod(lRaw, 1)) + 1e-6
		w := math.Abs(math.Mod(wRaw, 100))
		c := math.Abs(math.Mod(cRaw, 10))
		r := math.Abs(math.Mod(rRaw, 10))
		d := math.Abs(math.Mod(dRaw, 10))
		m, err := NewModel(lambda, d)
		if err != nil {
			return false
		}
		e := m.ExpectedTime(w, c, r)
		// E[T] ≥ W + C (can't beat failure-free), and increases with R.
		if e < w+c-1e-9 {
			return false
		}
		return m.ExpectedTime(w, c, r+1) >= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
