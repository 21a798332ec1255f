package numeric

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rng"
)

// expScaledScalar is the one-element form of ExpScaled, kept as its
// oracle: reduction, math.Exp and math.Frexp per argument. The batch
// must reproduce it bit for bit.
func expScaledScalar(x float64) (float64, int) {
	switch {
	case math.IsNaN(x):
		return math.NaN(), 0
	case math.IsInf(x, 1):
		return math.Inf(1), 0
	case math.IsInf(x, -1):
		return 0, 0
	case x > expScaledCap:
		return 1, ExpScaledSatExp
	case x < -expScaledCap:
		return 1, -ExpScaledSatExp
	}
	k := math.Round(x * invLn2)
	r := (x - k*ln2Hi) - k*ln2Lo
	m := math.Exp(r)
	frac, e := math.Frexp(m)
	return frac * 2, int(k) + e - 1
}

// expScaledOne runs the batch on a single argument.
func expScaledOne(x float64) (float64, int) {
	xs, exps := []float64{x}, []int32{0}
	ExpScaled(xs, exps)
	return xs[0], int(exps[0])
}

// checkBatchMatchesScalar runs ExpScaled over xs and compares every pair
// with the scalar oracle, bit for bit.
func checkBatchMatchesScalar(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	exps := make([]int32, len(xs))
	ExpScaled(got, exps)
	for i, x := range xs {
		f, e := expScaledScalar(x)
		if math.Float64bits(got[i]) != math.Float64bits(f) || int(exps[i]) != e {
			t.Fatalf("ExpScaled(%v) at %d of %d = (%v, %d), scalar (%v, %d)", x, i, len(xs), got[i], exps[i], f, e)
		}
	}
}

// TestExpScaledBatchMatchesScalar pins the batch to the scalar oracle
// on the special arguments, both sides of the saturation cap, and
// random arguments across every regime, in batches whose lengths cut
// the chunks at every offset.
func TestExpScaledBatchMatchesScalar(t *testing.T) {
	edges := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		MaxExpArg, -MaxExpArg, math.Nextafter(MaxExpArg, math.Inf(1)),
		expScaledCap, -expScaledCap,
		math.Nextafter(expScaledCap, math.Inf(1)), math.Nextafter(-expScaledCap, math.Inf(-1)),
		math.Nextafter(expScaledCap, 0), math.Nextafter(-expScaledCap, 0),
		1e12, -1e12, math.MaxFloat64, -math.MaxFloat64, 5e-324, -5e-324,
		0.5 * math.Ln2, -0.5 * math.Ln2, math.Ln2, 1, -1,
	}
	for _, x := range edges {
		checkBatchMatchesScalar(t, []float64{x})
	}
	r := rng.New(3)
	var xs []float64
	for i := 0; i < 4000; i++ {
		switch i % 8 {
		case 0:
			xs = append(xs, edges[r.IntN(len(edges))])
		case 1:
			xs = append(xs, r.Range(-1, 1))
		case 2:
			xs = append(xs, r.Range(-800, 800))
		case 3:
			xs = append(xs, r.Range(-1e6, 1e6))
		case 4:
			xs = append(xs, r.Range(-2*expScaledCap, 2*expScaledCap))
		default:
			xs = append(xs, r.Range(-50, 50))
		}
	}
	for _, n := range []int{1, 2, expChunk - 1, expChunk, expChunk + 1, 3*expChunk + 17, len(xs)} {
		for off := 0; off+n <= len(xs) && off < 3*expChunk; off += 37 {
			checkBatchMatchesScalar(t, xs[off:off+n])
		}
	}
	ExpScaled(nil, nil) // an empty batch is a no-op
}

// FuzzExpScaledBatch checks the batch against the scalar oracle, bit for
// bit, on arbitrary argument bit patterns.
func FuzzExpScaledBatch(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(0, 1, -1, 700, -700))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), expScaledCap, math.Nextafter(expScaledCap, math.Inf(1))))
	f.Add(seed(1e12, -1e12, 3.5e8, -3.5e8))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkBatchMatchesScalar(t, xs)
	})
}

func TestExpScaledMatchesExp(t *testing.T) {
	// Across the representable range of math.Exp, the scaled pair must
	// reconstruct e^x to ~ulp accuracy.
	for x := -700.0; x <= 700; x += 0.37 {
		frac, exp := expScaledOne(x)
		if frac < 1 || frac >= 2 {
			t.Fatalf("ExpScaled(%v) frac = %v out of [1,2)", x, frac)
		}
		got := math.Ldexp(frac, exp)
		want := math.Exp(x)
		if RelErr(got, want) > 1e-14 {
			t.Fatalf("ExpScaled(%v) = %v·2^%d = %v, want %v (rel %v)", x, frac, exp, got, want, RelErr(got, want))
		}
	}
}

func TestExpScaledBeyondOverflow(t *testing.T) {
	// Above the exp overflow threshold the pair still represents the
	// value: combining with a matching negative argument recovers the
	// ratio exactly where math.Exp alone would return +Inf.
	for _, d := range []float64{0, 0.5, 3, 100, 700} {
		hi := 5000.0
		fh, eh := expScaledOne(hi + d)
		fl, el := expScaledOne(-hi)
		got := LdexpProduct(fh*fl, eh+el)
		want := math.Exp(d)
		if RelErr(got, want) > 1e-12 {
			t.Fatalf("exp(%v) via scaled pair = %v, want %v", d, got, want)
		}
	}
}

func TestExpScaledSpecials(t *testing.T) {
	if f, _ := expScaledOne(math.NaN()); !math.IsNaN(f) {
		t.Errorf("ExpScaled(NaN) frac = %v", f)
	}
	if f, _ := expScaledOne(math.Inf(1)); !math.IsInf(f, 1) {
		t.Errorf("ExpScaled(+Inf) frac = %v", f)
	}
	if f, _ := expScaledOne(math.Inf(-1)); f != 0 {
		t.Errorf("ExpScaled(-Inf) frac = %v", f)
	}
	// The cap sentinel keeps huge arguments ordered and combinable.
	f, e := expScaledOne(1e12)
	if LdexpProduct(f, e) != math.Inf(1) {
		t.Errorf("huge argument should saturate to +Inf, got %v·2^%d", f, e)
	}
	f, e = expScaledOne(-1e12)
	if LdexpProduct(f, e) != 0 {
		t.Errorf("huge negative argument should saturate to 0, got %v·2^%d", f, e)
	}
}

func TestLdexpProductSaturation(t *testing.T) {
	if got := LdexpProduct(1.5, 2000); !math.IsInf(got, 1) {
		t.Errorf("overflow exponent: got %v", got)
	}
	if got := LdexpProduct(1.5, -2000); got != 0 {
		t.Errorf("underflow exponent: got %v", got)
	}
	if got := LdexpProduct(1.5, 3); got != 12 {
		t.Errorf("LdexpProduct(1.5, 3) = %v, want 12", got)
	}
	// Power-of-two scaling is exact: reconstruction equals math.Ldexp.
	for e := -1080; e <= 1023; e += 7 {
		if got, want := LdexpProduct(1.75, e), math.Ldexp(1.75, e); got != want {
			t.Fatalf("LdexpProduct(1.75, %d) = %v, want %v", e, got, want)
		}
	}
}
