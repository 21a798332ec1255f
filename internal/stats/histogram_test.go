package stats

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
)

var histQuantiles = []float64{0.01, 0.5, 0.9, 0.99, 0.999}

func histSamples(t *testing.T, kind string, n int, r *rng.Stream) []float64 {
	t.Helper()
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case "exp":
			xs[i] = r.ExpFloat64()
		case "lognormal":
			xs[i] = math.Exp(0.8 * r.NormFloat64())
		case "uniform":
			xs[i] = r.Float64()
		case "duplicates":
			xs[i] = float64(r.IntN(5))
		case "wide":
			xs[i] = math.Exp(40 * r.NormFloat64())
		default:
			t.Fatalf("unknown kind %s", kind)
		}
	}
	return xs
}

// orderStat is the ⌈q·n⌉-th smallest observation, the order statistic
// Histogram.Quantile estimates.
func orderStat(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(k, 1)-1]
}

// histBits renders a histogram in its serialized form, which is exact:
// equal strings mean bit-identical sketches.
func histBits(t *testing.T, h *Histogram) string {
	t.Helper()
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHistogramAccuracy pins the error bound against exact sort
// quantiles: within 2⁻¹¹ relative of the order statistic at every
// interior q, and exact at q = 0 and q = 1.
func TestHistogramAccuracy(t *testing.T) {
	const n = 200_000
	for _, kind := range []string{"exp", "lognormal", "uniform", "duplicates", "wide"} {
		xs := histSamples(t, kind, n, rng.New(101))
		var h Histogram
		for _, x := range xs {
			h.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if h.N() != n {
			t.Errorf("%s: n %d", kind, h.N())
		}
		if h.Quantile(0) != sorted[0] || h.Quantile(1) != sorted[n-1] {
			t.Errorf("%s: q=0/1 gave %v/%v, want %v/%v", kind, h.Quantile(0), h.Quantile(1), sorted[0], sorted[n-1])
		}
		for _, q := range histQuantiles {
			est, exact := h.Quantile(q), orderStat(sorted, q)
			if math.Abs(est-exact) > math.Ldexp(math.Abs(exact), -11) {
				t.Errorf("%s q=%v: estimate %v vs exact %v, relative error %.3g > 2⁻¹¹",
					kind, q, est, exact, math.Abs(est-exact)/exact)
			}
		}
	}
}

// TestHistogramMerge pins the sharding use case: histograms over a
// random partition of a stream, merged in any grouping, equal the
// single-stream histogram bit for bit.
func TestHistogramMerge(t *testing.T) {
	const n = 120_000
	xs := histSamples(t, "lognormal", n, rng.New(202))
	var whole Histogram
	for _, x := range xs {
		whole.Add(x)
	}
	want := histBits(t, &whole)
	r := rng.New(203)
	for _, parts := range []int{2, 7, 16} {
		shards := make([]Histogram, parts)
		for _, x := range xs {
			shards[r.IntN(parts)].Add(x)
		}
		// Fold in shard order, in reverse, and as a tree.
		var fwd, rev Histogram
		for i := range shards {
			fwd.Merge(&shards[i])
			rev.Merge(&shards[parts-1-i])
		}
		for step := 1; step < parts; step *= 2 {
			for i := 0; i+step < parts; i += 2 * step {
				shards[i].Merge(&shards[i+step])
			}
		}
		for name, h := range map[string]*Histogram{"forward": &fwd, "reverse": &rev, "tree": &shards[0]} {
			if got := histBits(t, h); got != want {
				t.Errorf("parts=%d %s fold differs from the single stream:\n%s\n%s", parts, name, got, want)
			}
		}
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	r := rng.New(303)
	for i := 0; i < 50_000; i++ {
		h.Add(r.ExpFloat64())
	}
	data := histBits(t, &h)
	var back Histogram
	if err := json.Unmarshal([]byte(data), &back); err != nil {
		t.Fatal(err)
	}
	if got := histBits(t, &back); got != data {
		t.Errorf("round trip changed the histogram:\n%s\n%s", got, data)
	}
	for _, q := range histQuantiles {
		if a, b := h.Quantile(q), back.Quantile(q); a != b {
			t.Errorf("q=%v: %v != %v after round trip", q, a, b)
		}
	}
	// Round-tripped histograms keep merging.
	back.Merge(&h)
	if back.N() != 2*h.N() {
		t.Errorf("merge after round trip: count %v", back.N())
	}
	var empty Histogram
	if err := json.Unmarshal([]byte(histBits(t, &Histogram{})), &empty); err != nil || empty.N() != 0 {
		t.Errorf("empty round trip: n %d, %v", empty.N(), err)
	}
}

// TestHistogramJSONRejectsCorrupt: the decoder refuses every document
// MarshalJSON could not have written, with an error and no panic.
func TestHistogramJSONRejectsCorrupt(t *testing.T) {
	// Bucket 1047552 holds 1, bucket 1048576 holds 2.
	for name, tc := range map[string]struct{ doc, want string }{
		"length mismatch":  {`{"n":2,"min":1,"max":1,"bucket":[1047552],"count":[1,1]}`, "but 2 counts"},
		"descending":       {`{"n":2,"min":2,"max":1,"bucket":[1048576,1047552],"count":[1,1]}`, "does not ascend"},
		"duplicate":        {`{"n":2,"min":1,"max":1,"bucket":[1047552,1047552],"count":[1,1]}`, "does not ascend"},
		"zero count":       {`{"n":1,"min":1,"max":2,"bucket":[1047552,1048576],"count":[1,0]}`, "count 0"},
		"+Inf bucket":      {`{"n":1,"min":1,"max":1,"bucket":[2096128],"count":[1]}`, "not below +Inf"},
		"NaN bucket":       {`{"n":1,"min":1,"max":1,"bucket":[4000000],"count":[1]}`, "not below +Inf"},
		"negative bucket":  {`{"n":1,"min":-1,"max":-1,"bucket":[3144704],"count":[1]}`, "not below +Inf"},
		"overflow":         {`{"n":1,"min":1,"max":2,"bucket":[1047552,1048576],"count":[18446744073709551615,2]}`, "overflow"},
		"count mismatch":   {`{"n":3,"min":1,"max":2,"bucket":[1047552,1048576],"count":[1,1]}`, "n=3"},
		"min below":        {`{"n":2,"min":0.5,"max":2,"bucket":[1047552,1048576],"count":[1,1]}`, "outside its buckets"},
		"min above":        {`{"n":2,"min":1.5,"max":2,"bucket":[1047552,1048576],"count":[1,1]}`, "outside its buckets"},
		"max below":        {`{"n":2,"min":1,"max":1.9,"bucket":[1047552,1048576],"count":[1,1]}`, "outside its buckets"},
		"max above":        {`{"n":2,"min":1,"max":4,"bucket":[1047552,1048576],"count":[1,1]}`, "outside its buckets"},
		"min above max":    {`{"n":2,"min":1.0009,"max":1,"bucket":[1047552],"count":[2]}`, "outside its buckets"},
		"negative min":     {`{"n":1,"min":-1,"max":1,"bucket":[1047552],"count":[1]}`, "outside its buckets"},
		"missing extremes": {`{"n":1,"bucket":[1047552],"count":[1]}`, "both extremes"},
		"missing max":      {`{"n":1,"min":1,"bucket":[1047552],"count":[1]}`, "both extremes"},
		"empty extremes":   {`{"n":0,"min":1,"max":1,"bucket":[],"count":[]}`, "both extremes"},
		"negative count":   {`{"n":1,"min":1,"max":1,"bucket":[1047552],"count":[-1]}`, "cannot unmarshal"},
		"huge bucket":      {`{"n":1,"min":1,"max":1,"bucket":[5000000000],"count":[1]}`, "cannot unmarshal"},
	} {
		var h Histogram
		if err := json.Unmarshal([]byte(tc.doc), &h); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %s gave error %v, want one saying %q", name, tc.doc, err, tc.want)
		}
	}
}

func TestHistogramSmallAndEdge(t *testing.T) {
	var h Histogram
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram should report NaN")
	}
	h.Add(3)
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); v != 3 {
			t.Errorf("single value histogram q=%v gave %v", q, v)
		}
	}
	h.Add(5)
	h.Add(5)
	h.Add(0)
	if h.N() != 4 || h.Quantile(0) != 0 || h.Quantile(1) != 5 {
		t.Errorf("n %d, q=0 %v, q=1 %v", h.N(), h.Quantile(0), h.Quantile(1))
	}
	if v := h.Quantile(0.3); math.Abs(v-3) > math.Ldexp(3, -11) {
		t.Errorf("q=0.3 (2nd of 4) gave %v, want 3 within 2⁻¹¹", v)
	}
	if v := h.Quantile(0.25); v != 0 {
		t.Errorf("q=0.25 (1st of 4) gave %v, want 0", v)
	}
	if v := h.Quantile(0.99); v != 5 {
		t.Errorf("q=0.99 gave %v, want 5", v)
	}
	for _, x := range []float64{math.NaN(), -1, math.Copysign(0, -1), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("add of %v should panic", x)
				}
			}()
			h.Add(x)
		}()
	}
	var nilMerge Histogram
	nilMerge.Merge(nil)
	nilMerge.Merge(&Histogram{})
	if nilMerge.N() != 0 {
		t.Errorf("merging empty histograms counted %d", nilMerge.N())
	}
}

// TestHistogramConstantStream: a constant stream reads back the
// constant at every quantile, in one bucket.
func TestHistogramConstantStream(t *testing.T) {
	var h Histogram
	for i := 0; i < 10_000; i++ {
		h.Add(7.25)
	}
	for _, q := range histQuantiles {
		if v := h.Quantile(q); v != 7.25 {
			t.Errorf("q=%v gave %v on constant stream", q, v)
		}
	}
	if len(h.counts) != 1 {
		t.Errorf("constant stream occupies %d buckets", len(h.counts))
	}
}
