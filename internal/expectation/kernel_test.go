package expectation

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// randomKernelInstance draws a positional problem in a given λ regime.
func randomKernelInstance(r *rng.Stream, n int, lambda float64) (Model, []float64, []float64, []float64) {
	m := Model{Lambda: lambda, Downtime: r.Range(0, 2)}
	weights := make([]float64, n)
	ckpt := make([]float64, n)
	rec := make([]float64, n)
	for i := 0; i < n; i++ {
		weights[i] = r.Range(0, 10)
		ckpt[i] = r.Range(0, 2)
		rec[i] = r.Range(0, 2)
	}
	return m, weights, ckpt, rec
}

func TestSegmentMatchesExpectedTime(t *testing.T) {
	r := rng.New(11)
	for _, lambda := range []float64{1e-9, 1e-4, 0.02, 0.5, 5} {
		m, weights, ckpt, rec := randomKernelInstance(r, 40, lambda)
		k, err := NewSegmentKernel(m, weights, ckpt, rec[0], rec[1:])
		if err != nil {
			t.Fatal(err)
		}
		prefix := make([]float64, len(weights)+1)
		for i, w := range weights {
			prefix[i+1] = prefix[i] + w
		}
		for x := 0; x < len(weights); x++ {
			for j := x; j < len(weights); j++ {
				got := k.Segment(x, j)
				w := prefix[j+1] - prefix[x]
				want := m.ExpectedTime(w, ckpt[j], rec[x])
				arg := m.Lambda * (w + ckpt[j])
				if arg < StableArgThreshold {
					if got != want {
						t.Fatalf("λ=%v (%d,%d): stable path not bit-identical: %v vs %v", lambda, x, j, got, want)
					}
					continue
				}
				if numeric.RelErr(got, want) > 1e-12 {
					t.Fatalf("λ=%v (%d,%d): Segment = %v, ExpectedTime = %v (rel %v)", lambda, x, j, got, want, numeric.RelErr(got, want))
				}
				if wc := k.SegmentWithCost(x, j, ckpt[j]); wc != want {
					t.Fatalf("λ=%v (%d,%d): SegmentWithCost not bit-identical: %v vs %v", lambda, x, j, wc, want)
				}
			}
		}
	}
}

func TestSegmentOverflowSemantics(t *testing.T) {
	// λ(W+C) past numeric.MaxExpArg must report +Inf, exactly like
	// ExpectedTime; recovery overflow likewise.
	m := Model{Lambda: 1, Downtime: 0}
	weights := []float64{300, 300, 300}
	ckpt := []float64{1, 1, 1}
	rec := []float64{0, 0, 0}
	k, err := NewSegmentKernel(m, weights, ckpt, rec[0], rec[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Segment(0, 2); !math.IsInf(got, 1) {
		t.Errorf("Segment spanning λW=901 = %v, want +Inf", got)
	}
	// Just under the threshold: finite but astronomically large, agreeing
	// with the reference to the fast-path tolerance.
	got := k.Segment(0, 1)
	want := m.ExpectedTime(600, 1, 0)
	if math.IsInf(got, 1) || numeric.RelErr(got, want) > 1e-12 {
		t.Errorf("Segment at λ(W+C)=601: %v, want %v", got, want)
	}
	if got := k.Segment(1, 1); math.IsInf(got, 1) {
		t.Errorf("single 300-unit segment should be finite-huge, got %v", got)
	}

	recBig := []float64{800, 0, 0}
	k2, err := NewSegmentKernel(m, weights, ckpt, recBig[0], recBig[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got := k2.Segment(0, 0); !math.IsInf(got, 1) {
		t.Errorf("λ·rec = 800 should give +Inf, got %v", got)
	}
}

// TestBoundIsLowerBound pins the pruning contract: Bound(x, j) ≤
// Segment(x, k)·Slack() for every k ≥ j.
func TestBoundIsLowerBound(t *testing.T) {
	r := rng.New(23)
	for _, lambda := range []float64{1e-6, 0.02, 1} {
		for trial := 0; trial < 20; trial++ {
			m, weights, ckpt, rec := randomKernelInstance(r, 30, lambda)
			k, err := NewSegmentKernel(m, weights, ckpt, rec[0], rec[1:])
			if err != nil {
				t.Fatal(err)
			}
			k.PrepareBound()
			for x := 0; x < len(weights); x++ {
				for j := x; j < len(weights); j++ {
					b := k.Bound(x, j)
					for kk := j; kk < len(weights); kk++ {
						s := k.Segment(x, kk)
						if !(b <= s*k.Slack()) && !math.IsInf(s, 1) {
							t.Fatalf("λ=%v: Bound(%d,%d)=%v exceeds Segment(%d,%d)=%v·slack", lambda, x, j, b, x, kk, s)
						}
					}
				}
			}
		}
	}
}

// TestSegmentSaturatedPrefix pins the regression where an absolute
// prefix beyond ExpScaled's cap (λ·P ≳ 3.7e8) saturated both scaled
// pairs, their sentinel exponents cancelled, and Segment returned 0 for
// a finite segment. The kernel must fall back to the stable path.
func TestSegmentSaturatedPrefix(t *testing.T) {
	m := Model{Lambda: 1, Downtime: 0}
	weights := []float64{4e8, 1, 2}
	ckpt := []float64{0, 0, 0.5}
	rec := []float64{0, 0, 0}
	k, err := NewSegmentKernel(m, weights, ckpt, rec[0], rec[1:])
	if err != nil {
		t.Fatal(err)
	}
	// Segments entirely past the huge task: finite, must match the
	// reference exactly (stable path).
	if got, want := k.Segment(1, 1), m.ExpectedTime(1, 0, 0); got != want {
		t.Errorf("Segment(1,1) = %v, want %v", got, want)
	}
	if got, want := k.Segment(1, 2), m.ExpectedTime(3, 0.5, 0); got != want {
		t.Errorf("Segment(1,2) = %v, want %v", got, want)
	}
	// Segments spanning the huge task overflow to +Inf.
	if got := k.Segment(0, 1); !math.IsInf(got, 1) {
		t.Errorf("Segment(0,1) = %v, want +Inf", got)
	}
	// Bound stays a valid lower bound in the saturated regime.
	k.PrepareBound()
	if b := k.Bound(1, 1); b > k.Segment(1, 1)*k.Slack() || b > k.Segment(1, 2)*k.Slack() {
		t.Errorf("Bound(1,1) = %v exceeds later segments", b)
	}
}

func TestKernelValidation(t *testing.T) {
	m := Model{Lambda: 0.1, Downtime: 0}
	if _, err := NewSegmentKernel(m, nil, nil, 0, nil); err == nil {
		t.Error("empty kernel should fail")
	}
	if _, err := NewSegmentKernel(m, []float64{1, 2}, []float64{1}, 0, []float64{0}); err == nil {
		t.Error("mismatched slice lengths should fail")
	}
	if _, err := NewSegmentKernel(Model{Lambda: -1}, []float64{1}, []float64{1}, 0, nil); err == nil {
		t.Error("invalid model should fail")
	}
}

// TestBoundNeedsPrepare pins that the suffix argmin is never built
// lazily: Bound on a kernel no PrepareBound has run on since its build
// fails loudly instead of reading a previous build's table.
func TestBoundNeedsPrepare(t *testing.T) {
	m := Model{Lambda: 0.1, Downtime: 0}
	k, err := NewSegmentKernel(m, []float64{1, 2, 3}, []float64{1, 1, 1}, 0, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	k.PrepareBound()
	_ = k.Bound(0, 1)
	if err := k.Reinit(m, []float64{3, 2, 1}, []float64{1, 1, 1}, 0, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Bound after Reinit without PrepareBound did not panic")
		}
	}()
	_ = k.Bound(0, 1)
}
