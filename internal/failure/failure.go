// Package failure models the stochastic failure processes of the paper:
// Exponential inter-arrival times in the core model (Section 2), and the
// Weibull / log-normal laws of the Section 6 extension. It also provides
// the platform-level process obtained by superposing p independent
// per-processor processes, with the rejuvenation policies discussed in the
// related-work comparison with Bouguerra et al.
package failure

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Distribution is a positive continuous distribution of failure
// inter-arrival times.
type Distribution interface {
	// Sample draws one inter-arrival time.
	Sample(r *rng.Stream) float64
	// CDF returns P(X ≤ x).
	CDF(x float64) float64
	// Mean returns E[X] (the MTBF of the process it generates).
	Mean() float64
	// String describes the distribution for experiment tables.
	String() string
}

// Survivaler is implemented by distributions with a tractable survival
// function S(t) = 1 − CDF(t). All distributions in this package implement
// it; it is split out so algorithms can state the capability they need.
type Survivaler interface {
	Survival(t float64) float64
}

// Exponential is the memoryless law of the paper's core model.
type Exponential struct {
	Lambda float64 // failure rate; MTBF = 1/Lambda
}

// positiveFinite reports whether x lies in (0, +Inf); NaN does not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// NewExponential returns an Exponential law with rate lambda (> 0).
func NewExponential(lambda float64) (Exponential, error) {
	if !positiveFinite(lambda) {
		return Exponential{}, fmt.Errorf("failure: exponential rate must be positive and finite, got %v", lambda)
	}
	return Exponential{Lambda: lambda}, nil
}

// Sample draws an Exp(λ) variate.
func (e Exponential) Sample(r *rng.Stream) float64 { return e.transform(e.base(r)) }

func (Exponential) base(r *rng.Stream) float64 { return r.ExpFloat64() }

func (e Exponential) transform(b float64) float64 { return b / e.Lambda }

func (e Exponential) monotone() bool { return e.Lambda > 0 }

// CDF returns 1 − e^{−λx}.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Lambda * x)
}

// Survival returns e^{−λx}.
func (e Exponential) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-e.Lambda * x)
}

// Mean returns 1/λ.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

func (e Exponential) String() string { return fmt.Sprintf("Exp(λ=%g)", e.Lambda) }

// Weibull has survival S(t) = exp(−(t/Scale)^Shape). Shape < 1 gives the
// decreasing hazard rate reported for production HPC failure logs
// (Schroeder & Gibson; Heien et al.), the regime where memoryless
// scheduling is suboptimal.
type Weibull struct {
	Shape float64 // k
	Scale float64 // η
}

// NewWeibull validates and returns a Weibull law.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if !positiveFinite(shape) || !positiveFinite(scale) {
		return Weibull{}, fmt.Errorf("failure: weibull shape and scale must be positive and finite, got k=%v η=%v", shape, scale)
	}
	return Weibull{Shape: shape, Scale: scale}, nil
}

// Sample draws by inversion: η·(−ln U)^{1/k}.
func (w Weibull) Sample(r *rng.Stream) float64 { return w.transform(w.base(r)) }

func (Weibull) base(r *rng.Stream) float64 { return r.ExpFloat64() }

func (w Weibull) transform(b float64) float64 { return w.Scale * math.Pow(b, 1/w.Shape) }

func (w Weibull) monotone() bool { return w.Shape > 0 && w.Scale > 0 }

// CDF returns 1 − exp(−(x/η)^k).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// Survival returns exp(−(x/η)^k).
func (w Weibull) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(x/w.Scale, w.Shape))
}

// Mean returns η·Γ(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

func (w Weibull) String() string { return fmt.Sprintf("Weibull(k=%g, η=%g)", w.Shape, w.Scale) }

// LogNormal has ln X ~ N(Mu, Sigma²).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// NewLogNormal validates and returns a log-normal law.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if math.IsNaN(mu) || math.IsInf(mu, 0) || !positiveFinite(sigma) {
		return LogNormal{}, fmt.Errorf("failure: log-normal needs a finite mu and a positive, finite sigma, got μ=%v σ=%v", mu, sigma)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws exp(μ + σZ).
func (l LogNormal) Sample(r *rng.Stream) float64 { return l.transform(l.base(r)) }

func (LogNormal) base(r *rng.Stream) float64 { return r.NormFloat64() }

func (l LogNormal) transform(b float64) float64 { return math.Exp(l.Mu + l.Sigma*b) }

func (l LogNormal) monotone() bool { return l.Sigma >= 0 }

// CDF returns Φ((ln x − μ)/σ).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// Survival returns 1 − CDF(x).
func (l LogNormal) Survival(x float64) float64 { return 1 - l.CDF(x) }

// Mean returns exp(μ + σ²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l LogNormal) String() string { return fmt.Sprintf("LogN(μ=%g, σ=%g)", l.Mu, l.Sigma) }

// Compile-time interface checks.
var (
	_ Distribution = Exponential{}
	_ Distribution = Weibull{}
	_ Distribution = LogNormal{}
	_ Survivaler   = Exponential{}
	_ Survivaler   = Weibull{}
	_ Survivaler   = LogNormal{}
)

// splitLaw is a law whose Sample(r) is transform(base(r)): base makes
// every stream draw and is cheap, transform is the deterministic
// remainder (the transcendental part). SuperposedProcess draws bases
// eagerly, in processor-index order, and transforms only the clocks a
// simulation reads; it relies on transform being non-decreasing, which
// monotone reports for the law's parameters (fields can be set without
// the validating constructors).
type splitLaw interface {
	base(r *rng.Stream) float64
	transform(b float64) float64
	monotone() bool
}

// identitySplit is the split of every other law: base is the whole Sample
// and transform is the identity.
type identitySplit struct{ Distribution }

func (d identitySplit) base(r *rng.Stream) float64 { return d.Sample(r) }

func (identitySplit) transform(b float64) float64 { return b }

func (identitySplit) monotone() bool { return true }

// splitOf returns dist's own split when its transform is non-decreasing,
// else the identity split.
func splitOf(dist Distribution) splitLaw {
	if s, ok := dist.(splitLaw); ok && s.monotone() {
		return s
	}
	return identitySplit{dist}
}

// ErrEmptySample is returned by fitters invoked on empty data.
var ErrEmptySample = errors.New("failure: empty sample")

// FitExponential returns the maximum-likelihood Exponential law for the
// observed inter-arrival times (rate = 1/mean).
func FitExponential(samples []float64) (Exponential, error) {
	if len(samples) == 0 {
		return Exponential{}, ErrEmptySample
	}
	var sum float64
	for _, s := range samples {
		if s < 0 {
			return Exponential{}, fmt.Errorf("failure: negative inter-arrival time %v", s)
		}
		sum += s
	}
	if sum == 0 {
		return Exponential{}, errors.New("failure: all inter-arrival times are zero")
	}
	return Exponential{Lambda: float64(len(samples)) / sum}, nil
}

// FitWeibull estimates a Weibull law by maximum likelihood: the shape
// solves the standard one-dimensional MLE fixed-point equation (found by
// bisection), and the scale follows in closed form.
func FitWeibull(samples []float64) (Weibull, error) {
	if len(samples) == 0 {
		return Weibull{}, ErrEmptySample
	}
	logs := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s <= 0 {
			return Weibull{}, fmt.Errorf("failure: non-positive inter-arrival time %v", s)
		}
		logs = append(logs, math.Log(s))
	}
	var meanLog float64
	for _, l := range logs {
		meanLog += l
	}
	meanLog /= float64(len(logs))

	// MLE condition: 1/k = Σ x^k ln x / Σ x^k − mean(ln x).
	g := func(k float64) float64 {
		var num, den float64
		for i, s := range samples {
			xk := math.Pow(s, k)
			num += xk * logs[i]
			den += xk
		}
		return 1/k - (num/den - meanLog)
	}
	// Bracket: g is decreasing in k; scan for a sign change.
	lo, hi := 1e-3, 1.0
	for g(hi) > 0 && hi < 1e6 {
		lo = hi
		hi *= 2
	}
	if g(hi) > 0 {
		return Weibull{}, errors.New("failure: weibull MLE did not bracket (degenerate sample)")
	}
	k := lo
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if g(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
		k = (lo + hi) / 2
	}
	var sumXk float64
	for _, s := range samples {
		sumXk += math.Pow(s, k)
	}
	scale := math.Pow(sumXk/float64(len(samples)), 1/k)
	return Weibull{Shape: k, Scale: scale}, nil
}
