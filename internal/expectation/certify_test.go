package expectation

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// buildKernel is a test helper constructing a kernel or failing.
func buildKernel(t testing.TB, m Model, w, c, rec []float64) *SegmentKernel {
	t.Helper()
	k, err := NewSegmentKernel(m, w, c, rec[0], rec[1:])
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCertifyHomogeneous(t *testing.T) {
	m := Model{Lambda: 0.05, Downtime: 1}
	n := 20
	w := make([]float64, n)
	c := make([]float64, n)
	rec := make([]float64, n)
	r := rng.New(7)
	for i := range w {
		w[i] = r.Range(1, 10)
		c[i] = 0.4
		rec[i] = 0.4
	}
	cert := buildKernel(t, m, w, c, rec).CertifyQuadrangle()
	if !cert.Certified {
		t.Fatalf("homogeneous instance rejected: %s", cert.Reason)
	}
	if cert.BoundaryChecks != 2*(n-1) {
		t.Errorf("boundary checks = %d, want %d", cert.BoundaryChecks, 2*(n-1))
	}
	if cert.SampledChecks != qiSampleBudget {
		t.Errorf("sampled checks = %d, want %d", cert.SampledChecks, qiSampleBudget)
	}
}

func TestCertifyRejections(t *testing.T) {
	m := Model{Lambda: 0.1, Downtime: 0}
	cases := []struct {
		name       string
		w, c, rec  []float64
		wantReason string
	}{
		{
			// C drops by more than the following weight → end table dips.
			name: "checkpoint drop",
			w:    []float64{3, 0.1, 2}, c: []float64{9, 0.1, 0.1}, rec: []float64{0, 0, 0},
			wantReason: "end table not monotone (checkpoint-cost drop outweighs a task weight)",
		},
		{
			// rec jumps by more than the task weight → start factor climbs.
			name: "recovery jump",
			w:    []float64{3, 0.2, 2}, c: []float64{1, 1.1, 1.2}, rec: []float64{0.1, 50, 0.1},
			wantReason: "start factor not monotone (recovery-cost jump outweighs a task weight)",
		},
		{
			// λ·rec beyond the exp range breaks the saturation-dominance
			// argument outright.
			name: "recovery overflow",
			w:    []float64{3, 4}, c: []float64{1, 1}, rec: []float64{1e5, 1e5},
			wantReason: "recovery amplitude overflows (λ·rec past exp range)",
		},
	}
	for _, tc := range cases {
		cert := buildKernel(t, m, tc.w, tc.c, tc.rec).CertifyQuadrangle()
		if cert.Certified {
			t.Errorf("%s: certified, want rejection", tc.name)
			continue
		}
		if cert.Reason != tc.wantReason {
			t.Errorf("%s: reason %q, want %q", tc.name, cert.Reason, tc.wantReason)
		}
	}
}

// TestCertifyDeterministic pins that the certificate depends only on
// the instance: repeated runs (including on a reused kernel) agree.
func TestCertifyDeterministic(t *testing.T) {
	m := Model{Lambda: 0.02, Downtime: 0.5}
	r := rng.New(11)
	n := 40
	w := make([]float64, n)
	c := make([]float64, n)
	rec := make([]float64, n)
	for i := range w {
		w[i] = r.Range(0, 5)
		c[i] = r.Range(0, 2)
		rec[i] = r.Range(0, 2)
	}
	k := buildKernel(t, m, w, c, rec)
	first := k.CertifyQuadrangle()
	if again := k.CertifyQuadrangle(); again != first {
		t.Fatalf("certificate changed between runs: %+v vs %+v", first, again)
	}
	if err := k.Reinit(m, w, c, rec[0], rec[1:]); err != nil {
		t.Fatal(err)
	}
	if again := k.CertifyQuadrangle(); again != first {
		t.Fatalf("certificate changed after Reinit: %+v vs %+v", first, again)
	}
}

// referenceCost evaluates the segment cost through the reference
// arithmetic of Model.ExpectedTime, independent of the kernel tables.
func referenceCost(m Model, prefix, c, rec []float64, x, j int) float64 {
	return m.ExpectedTime(prefix[j+1]-prefix[x], c[j], rec[x])
}

// quadrangleCounterexample scans every quadruple x < x' ≤ j < j' of the
// instance with the reference arithmetic and reports whether the
// concave quadrangle inequality is clearly violated beyond float noise.
func quadrangleCounterexample(m Model, w, c, rec []float64) bool {
	n := len(w)
	prefix := make([]float64, n+1)
	for i, v := range w {
		prefix[i+1] = prefix[i] + v
	}
	const tol = 1e-12 // clear violation: beyond any rounding of the four terms
	for x := 0; x < n-1; x++ {
		for xp := x + 1; xp < n; xp++ {
			for j := xp; j < n-1; j++ {
				for jp := j + 1; jp < n; jp++ {
					lhs := referenceCost(m, prefix, c, rec, x, j) + referenceCost(m, prefix, c, rec, xp, jp)
					rhs := referenceCost(m, prefix, c, rec, x, jp) + referenceCost(m, prefix, c, rec, xp, j)
					if math.IsInf(rhs, 1) || math.IsNaN(lhs) || math.IsNaN(rhs) {
						continue
					}
					if lhs > rhs*(1+tol)+tol {
						return true
					}
				}
			}
		}
	}
	return false
}

// FuzzQICertifier pins the certifier's soundness: it must never certify
// an instance for which exhaustive reference-arithmetic checking finds
// a quadrangle-inequality counterexample.
func FuzzQICertifier(f *testing.F) {
	f.Add(uint64(1), uint(8), 0.05, 4.0)
	f.Add(uint64(2), uint(14), 1e-6, 50.0)
	f.Add(uint64(3), uint(5), 1.5, 0.3)
	f.Add(uint64(4), uint(10), 0.01, 300.0)
	f.Fuzz(func(t *testing.T, seed uint64, n uint, lambda, scale float64) {
		size := 2 + int(n%14) // exhaustive quadruple scan stays tractable
		if !(lambda > 0) || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
			t.Skip()
		}
		if !(scale >= 0) || math.IsInf(scale, 0) || scale > 1e9 {
			t.Skip()
		}
		m := Model{Lambda: lambda, Downtime: 0.5}
		r := rng.New(seed)
		w := make([]float64, size)
		c := make([]float64, size)
		rec := make([]float64, size)
		// recBefore semantics of the chain DP: rec[x] is the recovery in
		// force at segment start x, drawn independently like the solvers'
		// R vectors.
		for i := range w {
			w[i] = r.Range(0, scale)
			c[i] = r.Range(0, scale/3)
			rec[i] = r.Range(0, scale/3)
		}
		k, err := NewSegmentKernel(m, w, c, rec[0], rec[1:])
		if err != nil {
			t.Skip()
		}
		cert := k.CertifyQuadrangle()
		if !cert.Certified {
			return // rejections are always safe (they only cost the fallback)
		}
		if quadrangleCounterexample(m, w, c, rec) {
			t.Fatalf("certified an instance with a quadrangle-inequality counterexample (λ=%v scale=%v n=%d)", lambda, scale, size)
		}
	})
}

// TestCertifierSoundnessSweep is the deterministic slice of the fuzz
// property: across random instances, certified ⟹ no counterexample.
func TestCertifierSoundnessSweep(t *testing.T) {
	r := rng.New(31)
	lambdas := []float64{1e-8, 1e-3, 0.05, 0.4, 2}
	certifiedSeen := 0
	for trial := 0; trial < 200; trial++ {
		lambda := lambdas[trial%len(lambdas)]
		n := 2 + int(r.Uint64()%10)
		m := Model{Lambda: lambda, Downtime: r.Range(0, 2)}
		w := make([]float64, n)
		c := make([]float64, n)
		rec := make([]float64, n)
		for i := range w {
			w[i] = r.Range(0, 6)
			c[i] = r.Range(0, 2)
			rec[i] = r.Range(0, 2)
		}
		k := buildKernel(t, m, w, c, rec)
		cert := k.CertifyQuadrangle()
		if !cert.Certified {
			continue
		}
		certifiedSeen++
		if quadrangleCounterexample(m, w, c, rec) {
			t.Fatalf("trial %d: certified instance has a counterexample", trial)
		}
	}
	if certifiedSeen == 0 {
		t.Fatal("sweep never produced a certified instance; widen the generator")
	}
}

// TestCertifySmallChains covers the degenerate sizes the sampled stage
// skips (n < 3).
func TestCertifySmallChains(t *testing.T) {
	m := Model{Lambda: 0.1, Downtime: 0}
	one := buildKernel(t, m, []float64{5}, []float64{1}, []float64{1}).CertifyQuadrangle()
	if !one.Certified || one.SampledChecks != 0 {
		t.Fatalf("n=1: %+v", one)
	}
	two := buildKernel(t, m, []float64{5, 4}, []float64{1, 1}, []float64{1, 1}).CertifyQuadrangle()
	if !two.Certified || two.SampledChecks != 0 {
		t.Fatalf("n=2: %+v", two)
	}
	if numeric.MaxExpArg <= 0 {
		t.Fatal("impossible") // keep the numeric import honest
	}
}
