package numeric

import (
	"math"
	"math/bits"
)

// This file implements the scaled-exponential representation used by the
// segment-expectation kernel (internal/expectation): e^x is carried as a
// (frac, exp) pair with e^x = frac·2^exp and frac ∈ [1, 2), so products of
// exponentials reduce to one float multiply plus integer exponent
// addition — no overflow, no underflow, and no transcendental call at
// combination time.
//
// The pairs are built in batches (ExpScaled over a slice): a kernel
// build needs two per position, and math.Exp runs markedly faster when
// its calls are issued back to back than when each sits between the
// reduction and the normalization of its own element. ExpScaled
// therefore works in chunks and runs each of its three steps over a
// whole chunk before the next: the Cody–Waite reduction, the math.Exp
// calls, and a normalization that reads the binary exponent straight
// from the result's bits instead of calling math.Frexp. The arithmetic
// per element is exactly that of the one-element form, so every pair is
// bit-identical to it (expscale_test.go keeps that form as the oracle).

// Cody–Waite split of ln 2, as used by the libm exp reduction: Ln2Hi
// carries the high bits with enough trailing zeros that k·Ln2Hi is exact
// for |k| < 2^20, and Ln2Lo carries the remainder.
const (
	ln2Hi  = 6.93147180369123816490e-01
	ln2Lo  = 1.90821492927058770002e-10
	invLn2 = 1.44269504088896338700e+00
)

// expScaledCap bounds the argument reduction: beyond |x| ≥ expScaledCap
// the exact exponent no longer matters (e^x is beyond ±2^(2^29), i.e.
// astronomically past every float64), so ExpScaled clamps to a sentinel
// pair with exponent ±ExpScaledSatExp. The reduction's k stays below
// 2^29 in magnitude, so it fits the int32 exponent slots.
const expScaledCap = float64(1<<29) * 0.6931471805599453

// ExpScaledSatExp is the sentinel exponent of a saturated ExpScaled
// pair (|x| ≥ ~3.7e8). It exceeds every exponent a non-saturated pair
// can carry (at most ~2^29·ln2/ln2 + 1 < 2^30), so callers can detect
// saturation by comparing exponents against ±ExpScaledSatExp.
//
// Saturated pairs order and saturate correctly on their own, but the
// clamp discards the argument's exact magnitude: combining TWO
// saturated pairs of opposite sign cancels their sentinel exponents and
// yields garbage. Callers pairing exponentials that can both saturate
// must detect that case and fall back to evaluating the difference
// directly (see expectation.SegmentKernel).
const ExpScaledSatExp = 1 << 30

// expChunk is the number of elements ExpScaled reduces, exponentiates
// and normalizes per step; the chunk's arguments and exponents stay in
// L1 across the three steps, and one uint64 marks its special cases.
const expChunk = 64

// ExpScaled replaces each xs[i] by frac and sets exps[i] to exp such
// that e^{xs[i]} = frac·2^exp with frac ∈ [1, 2), for any finite
// argument — the pair never overflows or underflows. exps must be at
// least as long as xs. Combine pairs with LdexpProduct.
//
// Accuracy: the reduction r = x − k·ln2 uses the Cody–Waite split, so the
// result is within ~2 ulps of e^x for |x| ≤ 2^20·ln2 ≈ 7.3e5; beyond
// that the rounding of k·ln2Hi grows the relative error linearly in |x|
// (about |x|·2^-52). Callers that prune on compared pairs must widen
// their slack accordingly (see expectation.SegmentKernel).
//
// Special cases: NaN → (NaN, 0), +Inf → (+Inf, 0), −Inf → (0, 0), and
// |x| > expScaledCap → (1, ±ExpScaledSatExp).
func ExpScaled(xs []float64, exps []int32) {
	exps = exps[:len(xs)]
	var specFrac [expChunk]float64
	var specExp [expChunk]int32
	for lo := 0; lo < len(xs); lo += expChunk {
		xc := xs[lo:min(lo+expChunk, len(xs))]
		ec := exps[lo : lo+len(xc)]
		// Reduction: r = x − k·ln2 in place of x, k in place of exp.
		// Special arguments reduce to r = 0 and are overwritten below.
		var special uint64
		for i, x := range xc {
			if !(x >= -expScaledCap && x <= expScaledCap) {
				special |= 1 << i
				specFrac[i], specExp[i] = expScaledSpecial(x)
				xc[i], ec[i] = 0, 0
				continue
			}
			k := math.Round(x * invLn2)
			xc[i] = (x - k*ln2Hi) - k*ln2Lo
			ec[i] = int32(k)
		}
		// r ∈ [−ln2/2, ln2/2] (plus reduction slop) → e^r near 1.
		for i, r := range xc {
			xc[i] = math.Exp(r)
		}
		// Normalization: e^r is a positive normal number, so its
		// unbiased binary exponent is its exponent field minus the bias,
		// and frac is its mantissa under exponent 0 — what math.Frexp
		// followed by frac·2, exp−1 computes.
		for i, m := range xc {
			b := math.Float64bits(m)
			ec[i] += int32(b>>52&0x7ff) - 1023
			xc[i] = math.Float64frombits(b&^(0x7ff<<52) | 1023<<52)
		}
		for ; special != 0; special &= special - 1 {
			i := bits.TrailingZeros64(special)
			xc[i], ec[i] = specFrac[i], specExp[i]
		}
	}
}

// expScaledSpecial returns the pair of an argument outside the reduced
// range: NaN, ±Inf, or beyond ±expScaledCap.
func expScaledSpecial(x float64) (float64, int32) {
	switch {
	case math.IsNaN(x):
		return math.NaN(), 0
	case math.IsInf(x, 1):
		return math.Inf(1), 0
	case math.IsInf(x, -1):
		return 0, 0
	case x > 0:
		return 1, ExpScaledSatExp
	}
	return 1, -ExpScaledSatExp
}

// ldexpMax is the largest combined exponent a finite float64 product of
// two in-range fractions (frac ∈ [1,2), product ∈ [1,4)) can carry.
const ldexpMax = 1023

// pow2 holds 2^e for e ∈ [ldexpMin, ldexpMax]; LdexpProduct is a table
// lookup plus one multiply, an order of magnitude cheaper than math.Ldexp
// in the DP inner loop.
const ldexpMin = -1080

var pow2 [ldexpMax - ldexpMin + 1]float64

func init() {
	for e := range pow2 {
		pow2[e] = math.Ldexp(1, e+ldexpMin)
	}
}

// Pow2 returns 2^e from the table behind LdexpProduct, and false when e
// lies outside the table's range [−1080, 1023] — there LdexpProduct
// saturates. A caller that has checked the range itself computes
// LdexpProduct(frac, e) as frac·Pow2(e), without a call.
func Pow2(e int) (float64, bool) {
	i := uint(e - ldexpMin)
	if i >= uint(len(pow2)) {
		return 0, false
	}
	return pow2[i], true
}

// LdexpProduct returns frac·2^exp, where frac is the product of two
// ExpScaled fractions (so frac ∈ [1, 4), or a special value) and exp the
// sum of their exponents. Out-of-range exponents saturate to +Inf / 0,
// matching the true magnitude of the represented exponential. Scaling by
// an in-range power of two is exact (no rounding), so ordering of
// represented values is preserved bit-for-bit.
func LdexpProduct(frac float64, exp int) float64 {
	if p, ok := Pow2(exp); ok {
		return frac * p
	}
	if exp > ldexpMax {
		if frac == 0 || math.IsNaN(frac) {
			return frac * math.Inf(1)
		}
		return math.Inf(1)
	}
	if math.IsInf(frac, 1) || math.IsNaN(frac) {
		return frac * 0
	}
	return 0
}
