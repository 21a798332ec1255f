package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func uniformCDF(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

func TestKSPerfectFit(t *testing.T) {
	// Sample at exact quantiles: D = 1/(2n) with the midpoint grid.
	n := 100
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = (float64(i) + 0.5) / float64(n)
	}
	d, err := KolmogorovSmirnov(sample, uniformCDF)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.0/(2*float64(n))) > 1e-12 {
		t.Errorf("D = %v, want %v", d, 1.0/(2*float64(n)))
	}
}

func TestKSDetectsWrongDistribution(t *testing.T) {
	// Uniform sample vs a shifted CDF must be rejected.
	n := 1000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = (float64(i) + 0.5) / float64(n)
	}
	wrong := func(x float64) float64 { return uniformCDF(x * x) } // sqrt-law
	ok, d, err := KSTest(sample, wrong, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("wrong CDF not rejected (D = %v)", d)
	}
}

func TestKSAcceptsRightDistribution(t *testing.T) {
	n := 1000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = (float64(i) + 0.5) / float64(n)
	}
	ok, d, err := KSTest(sample, uniformCDF, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("correct CDF rejected (D = %v)", d)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KolmogorovSmirnov(nil, uniformCDF); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := KolmogorovSmirnov([]float64{0.5}, func(float64) float64 { return 2 }); err == nil {
		t.Error("invalid CDF should fail")
	}
	if _, err := KSCriticalValue(0, 0.05); err == nil {
		t.Error("n = 0 should fail")
	}
	if _, err := KSCriticalValue(10, 1.5); err == nil {
		t.Error("alpha out of range should fail")
	}
}

func TestKSCriticalValueShrinks(t *testing.T) {
	c100, err := KSCriticalValue(100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	c10000, err := KSCriticalValue(10000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if c10000 >= c100 {
		t.Error("critical value must shrink with n")
	}
	// Known value: c(0.05) ≈ 1.358.
	if math.Abs(c100*10-1.3581) > 0.001 {
		t.Errorf("c(0.05)/√100 = %v, want ≈ 0.13581", c100)
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
