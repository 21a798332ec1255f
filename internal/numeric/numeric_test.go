package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLambertW0Identity(t *testing.T) {
	// W(x)·e^{W(x)} = x across the domain.
	xs := []float64{-1 / math.E, -0.367, -0.2, -1e-6, 0, 1e-9, 0.1, 0.5, 1, math.E, 10, 1e3, 1e8}
	for _, x := range xs {
		w, err := LambertW0(x)
		if err != nil {
			t.Fatalf("LambertW0(%v): %v", x, err)
		}
		got := w * math.Exp(w)
		if !AlmostEqual(got, x, 1e-9) {
			t.Errorf("LambertW0(%v) = %v; w·e^w = %v, want %v", x, w, got, x)
		}
	}
}

func TestLambertW0KnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0},
		{math.E, 1},
		{2 * math.E * math.E, 2},
		{-1 / math.E, -1},
	}
	for _, c := range cases {
		w, err := LambertW0(c.x)
		if err != nil {
			t.Fatalf("LambertW0(%v): %v", c.x, err)
		}
		if math.Abs(w-c.want) > 1e-7 {
			t.Errorf("LambertW0(%v) = %v, want %v", c.x, w, c.want)
		}
	}
}

func TestLambertW0OutOfDomain(t *testing.T) {
	if _, err := LambertW0(-1); err == nil {
		t.Error("LambertW0(-1) should fail: below -1/e")
	}
	if _, err := LambertW0(math.NaN()); err == nil {
		t.Error("LambertW0(NaN) should fail")
	}
}

func TestLambertW0Monotone(t *testing.T) {
	prev := math.Inf(-1)
	for _, x := range Linspace(-1/math.E+1e-9, 10, 500) {
		w, err := LambertW0(x)
		if err != nil {
			t.Fatalf("LambertW0(%v): %v", x, err)
		}
		if w < prev-1e-12 {
			t.Fatalf("LambertW0 not monotone at x=%v: %v < %v", x, w, prev)
		}
		prev = w
	}
}

func TestXOverExpm1(t *testing.T) {
	if got := XOverExpm1(0); got != 1 {
		t.Errorf("XOverExpm1(0) = %v, want 1", got)
	}
	// Compare against direct evaluation where it is stable.
	for _, x := range []float64{0.5, 1, 2, 10} {
		want := x / (math.Exp(x) - 1)
		if got := XOverExpm1(x); !AlmostEqual(got, want, 1e-12) {
			t.Errorf("XOverExpm1(%v) = %v, want %v", x, got, want)
		}
	}
	// Small-x limit: ≈ 1 − x/2.
	x := 1e-12
	if got := XOverExpm1(x); math.Abs(got-1) > 1e-9 {
		t.Errorf("XOverExpm1(%v) = %v, want ≈ 1", x, got)
	}
}

func TestIntegrate(t *testing.T) {
	// ∫₀¹ x² dx = 1/3.
	got := Integrate(func(x float64) float64 { return x * x }, 0, 1, 1e-10)
	if math.Abs(got-1.0/3.0) > 1e-8 {
		t.Errorf("Integrate x² = %v, want 1/3", got)
	}
	// ∫₀^π sin = 2.
	got = Integrate(math.Sin, 0, math.Pi, 1e-10)
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("Integrate sin = %v, want 2", got)
	}
}

func TestLinspace(t *testing.T) {
	pts := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(pts) != len(want) {
		t.Fatalf("len = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1: %v", got)
	}
	if got := Linspace(0, 1, 0); got != nil {
		t.Errorf("Linspace n=0: %v", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr(11, 10) = %v", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0, 0) = %v", got)
	}
}

func TestLambertW0IdentityProperty(t *testing.T) {
	// Property: for any u ≥ −1, LambertW0(u·e^u) = u.
	f := func(raw float64) bool {
		u := math.Mod(math.Abs(raw), 20) - 1 // u ∈ [−1, 19)
		x := u * math.Exp(u)
		w, err := LambertW0(x)
		if err != nil {
			return false
		}
		return math.Abs(w-u) <= 1e-7*(1+math.Abs(u))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
