// Package expectation implements the analytical core of the paper: the
// exact closed-form expectation of Proposition 1,
//
//	E[T(W,C,D,R,λ)] = e^{λR} (1/λ + D) (e^{λ(W+C)} − 1),
//
// its components E[Tlost] (Eq. 4) and E[Trec] (Eq. 5), and the comparator
// formulas from the related work: Young's and Daly's approximate optimal
// periods, the always-recover formula of Bouguerra et al. (which the paper
// points out is inaccurate), and the exact Lambert-W optimal chunking used
// in the convexity argument of Proposition 2.
//
// All formulas are evaluated in expm1-stable form so that the practically
// dominant regime λ(W+C) ≪ 1 keeps full precision.
package expectation

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Model carries the failure-environment parameters shared by every
// expectation query: the platform failure rate λ and the downtime D.
// Checkpoint cost C and recovery cost R vary per query because they are
// per-task quantities in the scheduling problem.
type Model struct {
	Lambda   float64 // platform failure rate (λ = p·λproc); must be > 0
	Downtime float64 // downtime D after each failure; must be ≥ 0
}

// NewModel validates and returns a Model.
func NewModel(lambda, downtime float64) (Model, error) {
	m := Model{Lambda: lambda, Downtime: downtime}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// Validate reports whether the model parameters are admissible.
func (m Model) Validate() error {
	if !(m.Lambda > 0) || math.IsInf(m.Lambda, 0) {
		return fmt.Errorf("expectation: failure rate λ must be positive and finite, got %v", m.Lambda)
	}
	if m.Downtime < 0 || math.IsNaN(m.Downtime) {
		return fmt.Errorf("expectation: downtime D must be ≥ 0, got %v", m.Downtime)
	}
	return nil
}

// MTBF returns the platform mean time between failures 1/λ.
func (m Model) MTBF() float64 { return 1 / m.Lambda }

// ExpectedTime returns E[T(W,C,D,R,λ)], the exact expected time to execute
// W units of work followed by a checkpoint of length C, when each failure
// costs a downtime D plus a recovery of length R (failures may strike
// during recovery but not during downtime). This is Proposition 1.
//
// Instances with λ(W+C) or λR beyond the exp overflow threshold return
// +Inf: their expectation is astronomically large, not undefined.
func (m Model) ExpectedTime(w, c, r float64) float64 {
	x := m.Lambda * (w + c)
	lr := m.Lambda * r
	if x > numeric.MaxExpArg || lr > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return math.Exp(lr) * (1/m.Lambda + m.Downtime) * math.Expm1(x)
}

// ExpectedLost returns E[Tlost], the expected time spent computing before a
// failure, conditioned on the failure striking within the next W+C units
// (Eq. 4): E[Tlost] = 1/λ − (W+C)/(e^{λ(W+C)} − 1).
func (m Model) ExpectedLost(w, c float64) float64 {
	x := m.Lambda * (w + c)
	if x == 0 {
		return 0
	}
	// 1/λ − (W+C)/expm1(x) = (1 − x/expm1(x)) / λ, stable form.
	return (1 - numeric.XOverExpm1(x)) / m.Lambda
}

// ExpectedRecovery returns E[Trec], the expected downtime-plus-recovery
// delay after a failure, accounting for failures during recovery (Eq. 5):
// E[Trec] = D·e^{λR} + (e^{λR} − 1)/λ.
func (m Model) ExpectedRecovery(r float64) float64 {
	lr := m.Lambda * r
	if lr > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return m.Downtime*math.Exp(lr) + math.Expm1(lr)/m.Lambda
}

// ExpectedTimeRecursion recomputes E[T] through the recursion of Eq. 3,
//
//	E[T] = W + C + (e^{λ(W+C)} − 1)(E[Tlost] + E[Trec]),
//
// rather than the factored closed form. Proposition 1 asserts both are
// equal; tests and experiment E2 check the identity numerically.
func (m Model) ExpectedTimeRecursion(w, c, r float64) float64 {
	x := m.Lambda * (w + c)
	if x > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return w + c + math.Expm1(x)*(m.ExpectedLost(w, c)+m.ExpectedRecovery(r))
}

// ExpectedTimeAlwaysRecover is the comparator formula of Bouguerra et
// al. [12], in which every execution attempt — including the first — is
// preceded by a recovery. Folding R into the work of Proposition 1 gives
//
//	E_B[T] = (1/λ + D) (e^{λ(R+W+C)} − 1).
//
// The paper notes this is inaccurate: the first attempt needs no recovery,
// so E_B strictly overestimates whenever R > 0 (experiment E3 measures by
// how much).
func (m Model) ExpectedTimeAlwaysRecover(w, c, r float64) float64 {
	x := m.Lambda * (r + w + c)
	if x > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return (1/m.Lambda + m.Downtime) * math.Expm1(x)
}

// FirstOrderExpectation is the O(λ) Taylor expansion of Proposition 1:
//
//	E ≈ (W+C) + λ(W+C)·((W+C)/2 + R + D),
//
// the first-order estimate in the style the paper attributes to
// Young/Daly. Experiment E3 quantifies its error against the exact form.
func (m Model) FirstOrderExpectation(w, c, r float64) float64 {
	x := w + c
	return x + m.Lambda*x*(x/2+r+m.Downtime)
}

// SecondOrderExpectation extends the expansion to O(λ²):
//
//	E ≈ x + λx(x/2 + R + D) + λ²(x³/6 + Dx²/2 + R(x²/2 + Dx) + R²x/2),
//
// with x = W + C — the "higher order estimate" in Daly's sense.
func (m Model) SecondOrderExpectation(w, c, r float64) float64 {
	x := w + c
	d := m.Downtime
	l := m.Lambda
	return x + l*x*(x/2+r+d) + l*l*(x*x*x/6+d*x*x/2+r*(x*x/2+d*x)+r*r*x/2)
}

// YoungPeriod returns Young's first-order approximation of the optimal
// checkpoint period: W* ≈ sqrt(2·C/λ).
func YoungPeriod(c, lambda float64) float64 {
	return math.Sqrt(2 * c / lambda)
}

// DalyPeriod returns Daly's higher-order approximation of the optimal
// checkpoint period for MTBF M = 1/λ:
//
//	W* ≈ sqrt(2CM)·[1 + (1/3)·sqrt(C/(2M)) + (1/9)·(C/(2M))] − C   (C < 2M)
//	W* = M                                                          (C ≥ 2M)
func DalyPeriod(c, lambda float64) float64 {
	mtbf := 1 / lambda
	if c >= 2*mtbf {
		return mtbf
	}
	ratio := c / (2 * mtbf)
	return math.Sqrt(2*c*mtbf)*(1+math.Sqrt(ratio)/3+ratio/9) - c
}

// OptimalChunk returns the exact optimal chunk size W* for a divisible
// load under the paper's model, obtained from the stationarity condition
// of the proof of Proposition 2: with u = λW*,
//
//	(1 − u)·e^{u} = e^{−λC}  ⇔  u = 1 + W₀(−e^{−1−λC}),
//
// where W₀ is the principal Lambert branch. The result is independent of R
// and D (they multiply the objective by a constant).
func OptimalChunk(c, lambda float64) (float64, error) {
	arg := -math.Exp(-1 - lambda*c)
	w0, err := numeric.LambertW0(arg)
	if err != nil {
		return 0, fmt.Errorf("expectation: optimal chunk: %w", err)
	}
	u := 1 + w0
	return u / lambda, nil
}

// EqualChunkMakespan returns the expected makespan of splitting total work
// wTotal into m equal chunks, each followed by a checkpoint C with
// recovery R (the function E₀(m) = m·e^{λR}(1/λ+D)(e^{λ(wTotal/m+C)}−1)
// from the proof of Proposition 2).
func (m Model) EqualChunkMakespan(wTotal, c, r float64, chunks int) float64 {
	if chunks <= 0 {
		return math.Inf(1)
	}
	per := m.ExpectedTime(wTotal/float64(chunks), c, r)
	return float64(chunks) * per
}

// OptimalChunkCount returns the integer number of equal chunks minimizing
// EqualChunkMakespan, along with the achieved makespan. It evaluates the
// continuous optimum from OptimalChunk and compares its floor and ceiling
// (the objective is convex in the chunk count, so this is exact).
func (m Model) OptimalChunkCount(wTotal, c, r float64) (int, float64, error) {
	if wTotal <= 0 {
		return 0, 0, fmt.Errorf("expectation: total work must be positive, got %v", wTotal)
	}
	chunk, err := OptimalChunk(c, m.Lambda)
	if err != nil {
		return 0, 0, err
	}
	var mReal float64
	if chunk <= 0 {
		mReal = 1
	} else {
		mReal = wTotal / chunk
	}
	lo := int(math.Floor(mReal))
	if lo < 1 {
		lo = 1
	}
	hi := lo + 1
	vLo := m.EqualChunkMakespan(wTotal, c, r, lo)
	vHi := m.EqualChunkMakespan(wTotal, c, r, hi)
	if vLo <= vHi {
		return lo, vLo, nil
	}
	return hi, vHi, nil
}

// PeriodMakespan returns the expected makespan of checkpointing a
// divisible load wTotal with fixed period (chunk size) period: the load is
// cut into ceil(wTotal/period) chunks, the last one possibly shorter. It
// is used to evaluate Young's and Daly's periods against the exact
// optimum.
func (m Model) PeriodMakespan(wTotal, c, r, period float64) float64 {
	if period <= 0 {
		return math.Inf(1)
	}
	n := int(math.Ceil(wTotal / period))
	if n < 1 {
		n = 1
	}
	full := n - 1
	rest := wTotal - float64(full)*period
	total := float64(full) * m.ExpectedTime(period, c, r)
	total += m.ExpectedTime(rest, c, r)
	return total
}

// ProofG evaluates g(m) = m·(e^{λ(W/m + C)} − 1), the function analyzed in
// the proof of Proposition 2 (with W = n·T there). Exposed for experiment
// E4, which reproduces its convexity and the location of its minimum.
func ProofG(lambda, w, c, mCount float64) float64 {
	if mCount <= 0 {
		return math.Inf(1)
	}
	x := lambda * (w/mCount + c)
	if x > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return mCount * math.Expm1(x)
}

// ProofGPrime evaluates g'(m) = (1 − λW/m)·e^{λ(W/m+C)} − 1.
func ProofGPrime(lambda, w, c, mCount float64) float64 {
	x := lambda * (w/mCount + c)
	return (1-lambda*w/mCount)*math.Exp(x) - 1
}

// ProofGDoublePrime evaluates g”(m) = λ²W²/m³ · e^{λ(W/m+C)} (> 0).
func ProofGDoublePrime(lambda, w, c, mCount float64) float64 {
	x := lambda * (w/mCount + c)
	return lambda * lambda * w * w / (mCount * mCount * mCount) * math.Exp(x)
}
