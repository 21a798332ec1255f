// Package numeric provides the numerical building blocks shared by the
// checkpoint-scheduling library: numerically stable exponential helpers,
// the Lambert W function and adaptive quadrature.
//
// All expectation formulas in the paper are built from terms of the form
// e^{λx} − 1; evaluating them through math.Expm1 keeps full precision for
// the practically important regime λx ≪ 1 (failures much rarer than tasks).
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// MaxExpArg is the largest argument for which math.Exp does not overflow
// to +Inf. Instances with λ(W+C) beyond this value have astronomically
// large expected makespans and are reported as infinite.
const MaxExpArg = 709.0

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// XOverExpm1 returns x / (e^x − 1), extended by continuity to 1 at x = 0.
// This is the shape of the E[Tlost] correction term in Equation 4.
func XOverExpm1(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x / math.Expm1(x)
}

// LambertW0 returns the principal branch W₀(x) of the Lambert W function,
// defined for x ≥ −1/e, i.e. the solution w ≥ −1 of w·e^w = x.
//
// The optimal chunk size of the divisible-load checkpointing problem (and
// the stationarity condition g'(m) = 0 in the proof of Proposition 2) is
// expressed through W₀; see expectation.OptimalChunk.
func LambertW0(x float64) (float64, error) {
	const minArg = -1.0 / math.E
	if x < minArg-1e-15 || math.IsNaN(x) {
		return math.NaN(), fmt.Errorf("numeric: LambertW0 argument %v < -1/e", x)
	}
	if x < minArg {
		x = minArg
	}
	switch {
	case x == 0:
		return 0, nil
	case math.IsInf(x, 1):
		return math.Inf(1), nil
	}

	// Initial guess: series near the branch point, log1p in the middle
	// range, asymptotic expansion far away.
	var w float64
	switch {
	case x < -0.25:
		p := math.Sqrt(2 * (math.E*x + 1))
		w = -1 + p - p*p/3 + 11.0/72.0*p*p*p
	case x < 3:
		w = math.Log1p(x) // exact at 0, within ~30% on (−0.25, 3)
	default:
		l1 := math.Log(x)
		l2 := math.Log(l1)
		w = l1 - l2 + l2/l1
	}

	// Halley iteration.
	for i := 0; i < 100; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		wp1 := w + 1
		if wp1 == 0 {
			break // derivative singularity at the branch point
		}
		denom := ew*wp1 - (w+2)*f/(2*wp1)
		if denom == 0 || math.IsNaN(denom) {
			break
		}
		dw := f / denom
		w -= dw
		if math.Abs(dw) <= 1e-14*(1+math.Abs(w)) {
			return w, nil
		}
	}
	// Accept the last iterate if the residual is already tiny (happens at
	// the branch point where derivatives vanish).
	if math.Abs(w*math.Exp(w)-x) <= 1e-9*(1+math.Abs(x)) {
		return w, nil
	}
	return w, ErrNoConverge
}

// Integrate approximates ∫_a^b f using adaptive Simpson quadrature with
// absolute tolerance tol.
func Integrate(f func(float64) float64, a, b, tol float64) float64 {
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	whole := (b - a) / 6 * (fa + 4*fc + fb)
	return adaptiveSimpson(f, a, b, fa, fb, fc, whole, tol, 50)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, fc, whole, tol float64, depth int) float64 {
	c := (a + b) / 2
	l, r := (a+c)/2, (c+b)/2
	fl, fr := f(l), f(r)
	left := (c - a) / 6 * (fa + 4*fl + fc)
	right := (b - c) / 6 * (fc + 4*fr + fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpson(f, a, c, fa, fc, fl, left, tol/2, depth-1) +
		adaptiveSimpson(f, c, b, fc, fb, fr, right, tol/2, depth-1)
}

// Linspace returns n evenly spaced points from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// AlmostEqual reports whether a and b agree to within relative tolerance
// rel (with an absolute floor of rel for values near zero).
func AlmostEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*math.Max(scale, 1)
}

// RelErr returns |a−b| / max(|b|, tiny); b is the reference value.
func RelErr(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1e-300 {
		den = 1e-300
	}
	return math.Abs(a-b) / den
}
