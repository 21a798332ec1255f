package stats

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummaryMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -3, 2.5}
	var whole Summary
	whole.AddAll(xs)
	var a, b Summary
	a.AddAll(xs[:5])
	b.AddAll(xs[5:])
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Add(3)
	a.Merge(b) // merge empty into non-empty
	if a.N() != 1 || a.Mean() != 3 {
		t.Error("merging empty changed summary")
	}
	var c Summary
	c.Merge(a) // merge into empty
	if c.N() != 1 || c.Mean() != 3 {
		t.Error("merging into empty failed")
	}
}

func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e9))
			}
		}
		if len(clean) < 2 {
			return true
		}
		k := int(split) % len(clean)
		var whole, a, b Summary
		whole.AddAll(clean)
		a.AddAll(clean[:k])
		b.AddAll(clean[k:])
		a.Merge(b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) <= 1e-6*(1+math.Abs(whole.Mean())) &&
			math.Abs(a.Variance()-whole.Variance()) <= 1e-6*(1+whole.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCI(t *testing.T) {
	var s Summary
	for i := 0; i < 10000; i++ {
		s.Add(float64(i % 2)) // mean 0.5, sd 0.5
	}
	half95 := s.CI(0.95)
	// Expected ≈ 1.96 · 0.5 / 100 ≈ 0.0098.
	if math.Abs(half95-0.0098) > 0.0005 {
		t.Errorf("CI(0.95) = %v, want ≈ 0.0098", half95)
	}
	if !s.Contains(0.5, 0.95) {
		t.Error("CI should contain the true mean")
	}
	if s.Contains(0.6, 0.95) {
		t.Error("CI should not contain 0.6")
	}
	if s.CI(0.99) <= s.CI(0.95) {
		t.Error("99% CI should be wider than 95%")
	}
}

func TestZQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		if got := zQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("zQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(zQuantile(0), -1) || !math.IsInf(zQuantile(1), 1) {
		t.Error("zQuantile boundary values should be infinite")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Quantile must not reorder the input.
	if xs[0] != 5 {
		t.Error("Quantile modified its input")
	}
}

func TestIsConvexRel(t *testing.T) {
	if !IsConvexRel([]float64{4, 1, 0, 1, 4}, 0) {
		t.Error("parabola samples should be convex")
	}
	if IsConvexRel([]float64{0, 3, 1}, 1e-12) {
		t.Error("non-convex sequence accepted")
	}
	// The point of the relative variant: an ulp-scale dip on a huge
	// curve is noise, not concavity. The second difference here is
	// −2e-9 absolute — a dozen ulps of the 1e6 magnitude, far below
	// 1e-12 of it relatively.
	big := []float64{1e6, 1e6 + 0.500000001, 1e6 + 1}
	if !IsConvexRel(big, 1e-12) {
		t.Error("ulp-scale dip on a large curve should pass the relative probe")
	}
	// A genuine violation scales with the curve, so it still fails.
	if IsConvexRel([]float64{1e6, 2e6, 1e6}, 1e-12) {
		t.Error("genuinely concave large curve accepted")
	}
	if !IsConvexRel([]float64{1, 2}, 0) || !IsConvexRel(nil, 0) {
		t.Error("short sequences are trivially convex")
	}
}

func TestArgminSlice(t *testing.T) {
	if got := ArgminSlice([]float64{3, 1, 2}); got != 1 {
		t.Errorf("ArgminSlice = %d, want 1", got)
	}
	if got := ArgminSlice(nil); got != -1 {
		t.Errorf("ArgminSlice(nil) = %d, want -1", got)
	}
}

// TestSummaryJSONRoundTrip pins the cross-process merge contract: a
// summary that travels through JSON merges bit-identically to one that
// never left the process.
func TestSummaryJSONRoundTrip(t *testing.T) {
	var a, b Summary
	for i := 0; i < 1000; i++ {
		a.Add(math.Sqrt(float64(i)) * 1.37)
		b.Add(float64(i%7) - 3.1)
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Fatalf("round trip changed state: %+v vs %+v", back, a)
	}
	direct, viaJSON := a, back
	direct.Merge(b)
	viaJSON.Merge(b)
	if direct != viaJSON {
		t.Error("merge after JSON round trip is not bit-identical")
	}
	for _, bad := range []string{
		`{"n":-1,"mean":0,"m2":0,"min":0,"max":0}`,
		`{"n":3,"mean":0,"m2":-1,"min":0,"max":1}`,
		`{"n":3,"mean":0,"m2":1,"min":2,"max":1}`,
	} {
		var s Summary
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("corrupt summary %s accepted", bad)
		}
	}
}

// Quantile returns the exact q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics; xs is not modified. It is
// the sort-based oracle the t-digest tests measure rank error against.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
