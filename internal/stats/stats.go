// Package stats provides the summary statistics used by the Monte-Carlo
// experiments: streaming moments (Welford), normal-approximation
// confidence intervals, the mergeable t-digest quantile sketch,
// Kolmogorov–Smirnov tests and convexity probes.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Summary accumulates streaming moments of a sample using Welford's
// algorithm. The zero value is an empty summary ready for use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add accumulates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddAll accumulates every value of xs.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Merge folds other into s, as if all of other's observations had been
// added to s. It enables parallel accumulation with per-worker summaries.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += other.m2 + delta*delta*n1*n2/tot
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// CI returns the half-width of the normal-approximation confidence
// interval around the mean at the given confidence level (e.g. 0.95,
// 0.99). Monte-Carlo sample sizes here are ≥ 10⁴, so the normal
// approximation to the t distribution is accurate.
func (s *Summary) CI(level float64) float64 {
	z := zQuantile((1 + level) / 2)
	return z * s.StdErr()
}

// Contains reports whether v lies inside the level confidence interval of
// the mean.
func (s *Summary) Contains(v, level float64) bool {
	half := s.CI(level)
	return v >= s.mean-half && v <= s.mean+half
}

// summaryJSON is the wire form of a Summary: the exact Welford state,
// so a summary serialized by one campaign shard and merged by another
// process is bit-identical to an in-process merge. JSON float64
// round-trips exactly (shortest-form encoding).
type summaryJSON struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON serializes the exact accumulator state.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max})
}

// UnmarshalJSON restores a summary serialized by MarshalJSON.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var doc summaryJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.N < 0 {
		return fmt.Errorf("stats: summary with negative count %d", doc.N)
	}
	if doc.N > 0 && (doc.M2 < 0 || doc.Min > doc.Max) {
		return fmt.Errorf("stats: inconsistent summary state (n=%d m2=%v min=%v max=%v)", doc.N, doc.M2, doc.Min, doc.Max)
	}
	*s = Summary{n: doc.N, mean: doc.Mean, m2: doc.M2, min: doc.Min, max: doc.Max}
	return nil
}

// String formats the summary for experiment tables.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.4g [%.6g, %.6g]",
		s.n, s.mean, s.StdDev(), s.min, s.max)
}

// zQuantile returns the standard-normal quantile via the Acklam/Moro
// rational approximation (|relative error| < 1.15e-9).
func zQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// IsConvexRel reports whether the sequence ys is (discretely) convex:
// ys[i+1] − ys[i] is nondecreasing, up to a relative tolerance. Each second
// difference may undershoot by relTol times the local magnitude
// max(|ys[i]|, |ys[i+1]|, |ys[i+2]|, 1). The floor of 1 keeps the probe
// meaningful for curves that pass near zero; relTol a few orders above
// machine epsilon (e.g. 1e-12) absorbs rounding noise at any scale.
func IsConvexRel(ys []float64, relTol float64) bool {
	for i := 0; i+2 < len(ys); i++ {
		d1 := ys[i+1] - ys[i]
		d2 := ys[i+2] - ys[i+1]
		scale := math.Max(math.Max(math.Abs(ys[i]), math.Abs(ys[i+1])), math.Max(math.Abs(ys[i+2]), 1))
		if d2 < d1-relTol*scale {
			return false
		}
	}
	return true
}

// ArgminSlice returns the index of the smallest value in ys, or -1 when
// empty.
func ArgminSlice(ys []float64) int {
	if len(ys) == 0 {
		return -1
	}
	best := 0
	for i, y := range ys {
		if y < ys[best] {
			best = i
		}
	}
	return best
}
