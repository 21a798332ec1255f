package failure

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

func sampleMean(d Distribution, n int, seed uint64) float64 {
	r := rng.New(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestExponentialValidation(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Error("rate 0 should be rejected")
	}
	if _, err := NewExponential(-1); err == nil {
		t.Error("negative rate should be rejected")
	}
	if _, err := NewExponential(math.Inf(1)); err == nil {
		t.Error("infinite rate should be rejected")
	}
	if _, err := NewExponential(2); err != nil {
		t.Errorf("valid rate rejected: %v", err)
	}
}

func TestExponentialMoments(t *testing.T) {
	e, _ := NewExponential(0.5)
	if e.Mean() != 2 {
		t.Errorf("Mean = %v, want 2", e.Mean())
	}
	m := sampleMean(e, 300000, 1)
	if math.Abs(m-2) > 0.02 {
		t.Errorf("sample mean = %v, want ≈ 2", m)
	}
}

func TestExponentialCDFSurvival(t *testing.T) {
	e, _ := NewExponential(1)
	if e.CDF(0) != 0 || e.CDF(-1) != 0 {
		t.Error("CDF at non-positive x should be 0")
	}
	if math.Abs(e.CDF(1)-(1-1/math.E)) > 1e-12 {
		t.Errorf("CDF(1) = %v", e.CDF(1))
	}
	for _, x := range []float64{0.1, 1, 5} {
		if math.Abs(e.CDF(x)+e.Survival(x)-1) > 1e-12 {
			t.Errorf("CDF + Survival ≠ 1 at %v", x)
		}
	}
}

func TestWeibullMoments(t *testing.T) {
	w, err := NewWeibull(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * math.Gamma(1.5)
	if math.Abs(w.Mean()-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", w.Mean(), want)
	}
	m := sampleMean(w, 300000, 2)
	if math.Abs(m-want) > 0.02 {
		t.Errorf("sample mean = %v, want ≈ %v", m, want)
	}
}

func TestWeibullShape1IsExponential(t *testing.T) {
	w, _ := NewWeibull(1, 2) // Exp(rate 1/2)
	e, _ := NewExponential(0.5)
	for _, x := range []float64{0.1, 1, 3, 10} {
		if math.Abs(w.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Errorf("Weibull(1, 2) CDF(%v) = %v, want %v", x, w.CDF(x), e.CDF(x))
		}
	}
}

func TestWeibullValidation(t *testing.T) {
	if _, err := NewWeibull(0, 1); err == nil {
		t.Error("zero shape should be rejected")
	}
	if _, err := NewWeibull(1, -2); err == nil {
		t.Error("negative scale should be rejected")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{nan, 1}, {1, nan}, {inf, 1}, {1, inf}} {
		if _, err := NewWeibull(c[0], c[1]); err == nil {
			t.Errorf("NewWeibull(%v, %v) should be rejected", c[0], c[1])
		}
	}
}

func TestLogNormalValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{0, 0}, {0, -1}, {nan, 1}, {inf, 1}, {-inf, 1}, {0, nan}, {0, inf}} {
		if _, err := NewLogNormal(c[0], c[1]); err == nil {
			t.Errorf("NewLogNormal(%v, %v) should be rejected", c[0], c[1])
		}
	}
	if _, err := NewLogNormal(-3, 0.5); err != nil {
		t.Errorf("valid parameters rejected: %v", err)
	}
}

func TestLogNormalMoments(t *testing.T) {
	l, err := NewLogNormal(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(0.125)
	if math.Abs(l.Mean()-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", l.Mean(), want)
	}
	m := sampleMean(l, 300000, 3)
	if math.Abs(m-want) > 0.02 {
		t.Errorf("sample mean = %v, want ≈ %v", m, want)
	}
	if math.Abs(l.CDF(1)-0.5) > 1e-12 {
		t.Errorf("median should be e^μ: CDF(1) = %v", l.CDF(1))
	}
}

// Deterministic always returns Value: a test law that scripts failures.
type Deterministic struct {
	Value float64
}

// Sample returns Value.
func (d Deterministic) Sample(*rng.Stream) float64 { return d.Value }

// CDF is the step function at Value.
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// Survival returns 1 − CDF(x).
func (d Deterministic) Survival(x float64) float64 { return 1 - d.CDF(x) }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.Value) }

var (
	_ Distribution = Deterministic{}
	_ Survivaler   = Deterministic{}
)

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 5}
	if d.Sample(rng.New(1)) != 5 || d.Mean() != 5 {
		t.Error("deterministic law broken")
	}
	if d.CDF(4.9) != 0 || d.CDF(5) != 1 {
		t.Error("deterministic CDF wrong")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	dists := []Distribution{
		Exponential{Lambda: 0.3},
		Weibull{Shape: 0.7, Scale: 2},
		LogNormal{Mu: 0.5, Sigma: 1},
	}
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 100))
		y := math.Abs(math.Mod(b, 100))
		if x > y {
			x, y = y, x
		}
		for _, d := range dists {
			cx, cy := d.CDF(x), d.CDF(y)
			if cx < 0 || cy > 1 || cx > cy+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFitExponential(t *testing.T) {
	e, _ := NewExponential(0.25)
	r := rng.New(4)
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = e.Sample(r)
	}
	fit, err := FitExponential(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-0.25) > 0.005 {
		t.Errorf("fitted λ = %v, want ≈ 0.25", fit.Lambda)
	}
	if _, err := FitExponential(nil); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := FitExponential([]float64{0, 0}); err == nil {
		t.Error("all-zero sample should fail")
	}
	if _, err := FitExponential([]float64{1, -1}); err == nil {
		t.Error("negative sample should fail")
	}
}

func TestFitWeibull(t *testing.T) {
	w, _ := NewWeibull(0.7, 10)
	r := rng.New(5)
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = w.Sample(r)
	}
	fit, err := FitWeibull(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Shape-0.7) > 0.03 {
		t.Errorf("fitted shape = %v, want ≈ 0.7", fit.Shape)
	}
	if math.Abs(fit.Scale-10)/10 > 0.05 {
		t.Errorf("fitted scale = %v, want ≈ 10", fit.Scale)
	}
	if _, err := FitWeibull([]float64{1, -2}); err == nil {
		t.Error("non-positive samples should fail")
	}
	if _, err := FitWeibull(nil); err == nil {
		t.Error("empty sample should fail")
	}
}

func TestSamplersMatchCDFs(t *testing.T) {
	// Kolmogorov–Smirnov at 1% significance: each sampler's empirical
	// distribution must match its analytic CDF.
	dists := []Distribution{
		Exponential{Lambda: 0.3},
		Weibull{Shape: 0.7, Scale: 5},
		Weibull{Shape: 2, Scale: 1},
		LogNormal{Mu: 1, Sigma: 0.8},
	}
	r := rng.New(99)
	for _, d := range dists {
		sample := make([]float64, 20000)
		for i := range sample {
			sample[i] = d.Sample(r)
		}
		ok, ks, err := stats.KSTest(sample, d.CDF, 0.01)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if !ok {
			t.Errorf("%v: sampler rejected by KS test (D = %v)", d, ks)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, d := range []Distribution{
		Exponential{Lambda: 1}, Weibull{Shape: 1, Scale: 1},
		LogNormal{Mu: 0, Sigma: 1}, Deterministic{Value: 1},
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
	if RejuvenateFailedOnly.String() == "" || RejuvenateAll.String() == "" {
		t.Error("policy String() empty")
	}
}
