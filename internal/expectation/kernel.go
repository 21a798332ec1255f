package expectation

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// SegmentKernel is the fast evaluator behind the chain/DAG placement DPs
// (Proposition 3 and its generalizations). The DP transition needs the
// segment expectation of Proposition 1 for O(n²) (start, end) pairs,
//
//	E(x, j) = e^{λ·rec(x)} (1/λ + D) (e^{λ(P(j+1) − P(x) + C_j)} − 1),
//
// and the naive evaluation pays one math.Exp plus one math.Expm1 per
// pair. The kernel instead precomputes, once per problem (O(n) exp
// calls),
//
//	endFrac/endExp[j]     = e^{λ(P(j+1) + C_j)}   (scaled, never overflows)
//	startFrac/startExp[x] = e^{−λ·P(x)}           (scaled)
//	amp[x]                = e^{λ·rec(x)} (1/λ + D)
//
// so each transition becomes two multiplies and a table-backed power-of-
// two scaling — zero transcendental calls in the inner loop. The build
// takes the exponentials in batches (numeric.ExpScaled over a whole
// table, the amplitudes in a loop of their own), and the exponents
// t_j = λ(P(j+1) + C_j) and u_x = λ·P(x) are recomputed from the prefix
// table instead of stored.
//
// # Numerical-stability contract
//
// The fused product e^{t_j}·e^{−u_x} − 1 loses relative precision when
// the segment argument a = λ(w + C) is small (the classic expm1
// cancellation): the error is about 4ε·(1 + 1/a). Segment therefore
// falls back to the expm1-stable path — bit-identical to
// Model.ExpectedTime — whenever a < StableArgThreshold, keeping the fast
// path's relative error below ~4·10⁻¹³ while the practically dominant
// λw ≪ 1 regime retains full precision. Arguments past
// numeric.MaxExpArg report +Inf, and λ·rec(x) past it reports +Inf,
// exactly like Model.ExpectedTime.
//
// For very large absolute prefixes (λ·P(n) beyond ~7·10⁵) the scaled
// tables themselves lose up to λ·P(n)·2⁻⁵² of relative accuracy (see
// numeric.ExpScaled); Slack widens with the problem's magnitude so that
// pruning stays exact even there.
//
// # Exact pruning
//
// Bound(x, j) returns a value that is — up to the Slack factor — a lower
// bound on Segment(x, k) for every k ≥ j: it evaluates the suffix
// minimum of the end table (built by PrepareBound, which only the
// pruning scans call), and scaling by the common positive factors
// e^{−λP(x)} and amp[x] is monotone in floating point (rounding is
// monotone, power-of-two scaling is exact). A DP scanning j upward may
// therefore stop as soon as Bound(x, j+1) ≥ best·Slack(): every skipped
// candidate's segment term alone already exceeds the incumbent, and DP
// tails are nonnegative, so no skipped candidate can strictly improve.
// Since the paper's recurrences break ties toward the earliest scanned
// index, the pruned scan reproduces the unpruned kernel scan exactly.
type SegmentKernel struct {
	model  Model
	prefix []float64 // prefix[i] = Σ_{k<i} weights[k], len n+1
	ckpt   []float64

	endFrac []float64 // e^{t(j)} scaled: frac ∈ [1,2); t(j) = λ·(prefix[j+1] + C_j)
	endExp  []int32
	// e^{−u(x)} scaled; u(x) = λ·prefix[x]. startFrac has one spare
	// slot past the n positions, for SpendStarts' best[n].
	startFrac []float64
	startExp  []int32

	amp    []float64 // amp[x] = e^{λ·rec(x)}·(1/λ + D); see recInf
	recInf []bool    // λ·rec(x) > numeric.MaxExpArg → Segment is +Inf
	// sufMin[j] = argmin_{k ≥ j} t(k), built by PrepareBound and empty
	// until then: only the pruning scans read it.
	sufMin []int32
	slack  float64
	// The certifier's boundary checks, made in the build loop: endBreak
	// is the first j whose end-factor margin fails, t(j+1) < t(j), and
	// startBreak the first x whose start-factor margin fails,
	// λ·rec(x+1) − u(x+1) > λ·rec(x) − u(x) (−1 when none); anyRecInf
	// reports a recovery amplitude past the exp range.
	endBreak, startBreak int
	anyRecInf            bool
}

// StableArgThreshold is the segment argument λ(W+C) below which Segment
// uses the expm1-stable path (bit-identical to Model.ExpectedTime)
// instead of the fused scaled product. At the threshold the fast path's
// relative error is about 4ε·(1+2¹⁰) ≈ 4·10⁻¹³.
const StableArgThreshold = 1.0 / 1024

// kernelBaseSlack covers the fast path's relative error (both in Segment
// and in Bound) with three orders of magnitude to spare.
const kernelBaseSlack = 1e-9

// NewSegmentKernel builds the kernel for a positional problem: weights,
// per-position checkpoint costs, and the recovery costs in the chain
// problem's layout — a segment starting at x = 0 recovers with r0, one
// starting at x > 0 with recAfter[x−1], the cost of restoring the
// checkpoint taken after position x−1. weights and ckpt must have equal,
// positive length n; recAfter needs at least n−1 entries (recAfter[n−1],
// when present, is never read).
func NewSegmentKernel(m Model, weights, ckpt []float64, r0 float64, recAfter []float64) (*SegmentKernel, error) {
	k := &SegmentKernel{}
	if err := k.Reinit(m, weights, ckpt, r0, recAfter); err != nil {
		return nil, err
	}
	return k, nil
}

// Reinit rebuilds the kernel in place for a new problem, reusing the
// table capacity of previous builds — the portfolio solvers run one
// per-order DP per linearization strategy and reinitialize one kernel
// across them instead of allocating ~10 tables per order. A reused
// kernel is indistinguishable from a fresh NewSegmentKernel build,
// including one whose start tables SpendStarts handed to a row solver.
func (k *SegmentKernel) Reinit(m Model, weights, ckpt []float64, r0 float64, recAfter []float64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("expectation: kernel needs at least one position")
	}
	if len(ckpt) != n || len(recAfter) < n-1 {
		return fmt.Errorf("expectation: kernel slice lengths differ (%d weights, %d checkpoint costs, %d recovery costs)", n, len(ckpt), len(recAfter))
	}
	k.model = m
	k.prefix = grow(k.prefix, n+1)
	k.ckpt = ckpt
	k.endFrac = grow(k.endFrac, n)
	k.endExp = grow(k.endExp, n)
	k.startFrac = grow(k.startFrac, n+1)
	k.startExp = grow(k.startExp, n)
	k.amp = grow(k.amp, n)
	k.recInf = grow(k.recInf, n)
	k.sufMin = k.sufMin[:0] // a previous build's bound is stale
	k.prefix[0] = 0
	for i, w := range weights {
		k.prefix[i+1] = k.prefix[i] + w
	}
	// The build loop writes each table's exponent argument in place
	// (λ·rec into amp); the batched exponentials then overwrite them.
	k.endBreak, k.startBreak, k.anyRecInf = -1, -1, false
	var tPrev, lrPrev, uPrev float64
	for i := 0; i < n; i++ {
		t, u := k.t(i), k.u(i)
		k.endFrac[i], k.startFrac[i] = t, -u
		rec := r0
		if i > 0 {
			rec = recAfter[i-1]
		}
		lr := m.Lambda * rec
		// End factor t nondecreasing and start factor λ·rec − u
		// nonincreasing (see CertifyQuadrangle).
		if i > 0 && k.endBreak < 0 && !(t >= tPrev) {
			k.endBreak = i - 1
		}
		if i > 0 && k.startBreak < 0 && !(lr-u <= lrPrev-uPrev) {
			k.startBreak = i - 1
		}
		tPrev, lrPrev, uPrev = t, lr, u
		k.amp[i] = lr
		k.recInf[i] = lr > numeric.MaxExpArg
		k.anyRecInf = k.anyRecInf || k.recInf[i]
	}
	numeric.ExpScaled(k.endFrac, k.endExp)
	numeric.ExpScaled(k.startFrac[:n], k.startExp)
	scale := 1/m.Lambda + m.Downtime
	for i, lr := range k.amp {
		if k.recInf[i] {
			k.amp[i] = math.Inf(1)
		} else {
			k.amp[i] = math.Exp(lr) * scale
		}
	}
	// Pruning slack: fast-path error plus the large-prefix degradation of
	// the scaled tables (λ·P(n)·2⁻⁵², with headroom).
	k.slack = 1 + kernelBaseSlack + 8e-16*math.Max(1, k.t(n-1))
	return nil
}

// PrepareBound builds the suffix argmin of the end table that Bound
// reads. Every scan that prunes with Bound calls it once before its
// first row; the monotone window arm never does and so never pays for
// the table. It is idempotent until the next Reinit, but not safe to
// run concurrently with Bound: a kernel shared across goroutines must
// be prepared before it is shared.
//
// The argmin compares the full-precision exponents t(j) rather than the
// scaled pairs: the pairs lose the magnitude of saturated entries (they
// all collapse to the sentinel), while t keeps the true order
// everywhere. Candidates whose t are within an ulp of each other can
// rank either way against their scaled values; Slack absorbs that, as
// it does the cross-path comparisons.
func (k *SegmentKernel) PrepareBound() {
	n := k.Len()
	if len(k.sufMin) == n {
		return
	}
	k.sufMin = grow(k.sufMin, n)
	best, tBest := n-1, k.t(n-1)
	k.sufMin[n-1] = int32(best)
	for j := n - 2; j >= 0; j-- {
		if t := k.t(j); t < tBest {
			best, tBest = j, t
		}
		k.sufMin[j] = int32(best)
	}
}

// SpendStarts hands a right-to-left row solver the kernel's start
// tables as its own row arrays, so that the solve allocates no n-sized
// arrays: best has n+1 entries and aliases the scaled start fractions
// (best[n] = 0, in the spare slot), next has n and aliases the start
// exponents.
//
// Only a call whose start is x reads startFrac[x] and startExp[x]
// (Segment, RowValues and Bound with start x); Work, SegmentWithCost
// and the end tables read neither. A solver that visits rows
// x = n−1, …, 0 in turn, makes every call with start x before it moves
// to row x−1, and never calls with a start above the current row, may
// therefore write best[x] and next[x] right after its last call for
// row x: every start entry is read before it is overwritten, and the
// tails best[j+1], j ≥ x, it reads are rows already solved.
//
// Once a row is written the kernel's start-dependent calls are valid
// only for rows not yet written, and CertifyQuadrangle is invalid: a
// kernel whose starts were spent must be rebuilt with Reinit before any
// other use. Work, SegmentWithCost and Len stay valid, which is all a
// placement's re-accumulation reads.
func (k *SegmentKernel) SpendStarts() (best []float64, next []int32) {
	n := k.Len()
	k.startFrac[n] = 0
	return k.startFrac[:n+1], k.startExp[:n]
}

// grow returns s resized to n, reusing capacity when possible; grown
// elements may hold stale content, which Reinit fully overwrites.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Len returns the number of positions.
func (k *SegmentKernel) Len() int { return len(k.amp) }

// t returns the end exponent λ·(P(j+1) + C_j), and u the start exponent
// λ·P(x). Both are recomputed rather than tabulated. The conversions
// round the products, so no platform fuses them into a caller's
// subtraction and every use sees the same value.
func (k *SegmentKernel) t(j int) float64 {
	return float64(k.model.Lambda * (k.prefix[j+1] + k.ckpt[j]))
}
func (k *SegmentKernel) u(x int) float64 { return float64(k.model.Lambda * k.prefix[x]) }

// Work returns the total weight of positions [x, j], P(j+1) − P(x), from
// the kernel's prefix table.
func (k *SegmentKernel) Work(x, j int) float64 { return k.prefix[j+1] - k.prefix[x] }

// Segment returns the Proposition 1 expectation of executing positions
// [x, j] and checkpointing after j, with the recovery cost in force at x.
// It agrees with Model.ExpectedTime(P(j+1)−P(x), C_j, rec(x)) to the
// contract documented on SegmentKernel (bit-identical below
// StableArgThreshold, ≲4·10⁻¹³ relative above it, same ±Inf semantics).
func (k *SegmentKernel) Segment(x, j int) float64 {
	if k.recInf[x] {
		return math.Inf(1)
	}
	if v, ok := k.term(k.t(j)-k.u(x), j, k.amp[x], k.startFrac[x], k.startExp[x]); ok {
		return v
	}
	return k.segmentSlow(x, j)
}

// term is the fused fast path of Segment(x, j), given the segment
// argument arg = t(j) − u(x) and row x's hoisted factors: amp = amp[x]
// (finite) and the scaled start pair (sf, se). ok is false whenever
// segmentSlow must evaluate the segment instead: an argument past
// numeric.MaxExpArg or below StableArgThreshold, a saturated pair, or a
// combined exponent outside LdexpProduct's table. A saturated start
// pair needs no test of its own: against an unsaturated end pair its
// sentinel puts the combined exponent far outside the table, and
// against a saturated one the end pair's test catches it. The product
// is LdexpProduct's in-range arithmetic; the conversions keep it from
// fusing with the −1 or with a caller's tail addition, as a call
// boundary would. term stays within the inlining budget, so a row scan
// pays no call per candidate.
func (k *SegmentKernel) term(arg float64, j int, amp, sf float64, se int32) (float64, bool) {
	ee := k.endExp[j]
	p2, inRange := numeric.Pow2(int(ee) + int(se))
	if !inRange || ee >= numeric.ExpScaledSatExp || !(arg >= StableArgThreshold && arg <= numeric.MaxExpArg) {
		return 0, false
	}
	return float64(amp * (float64(k.endFrac[j]*sf*p2) - 1)), true
}

// segmentSlow evaluates Segment(x, j) for a finite amplitude on every
// path, the cases term declines included.
func (k *SegmentKernel) segmentSlow(x, j int) float64 {
	arg := k.t(j) - k.u(x)
	if arg > numeric.MaxExpArg {
		return math.Inf(1)
	}
	if arg < StableArgThreshold ||
		k.startExp[x] <= -numeric.ExpScaledSatExp || k.endExp[j] >= numeric.ExpScaledSatExp {
		// Expm1-stable path, mirroring Model.ExpectedTime's expression
		// tree so the result is bit-identical to the reference. Besides
		// the small-argument regime, this also covers saturated scaled
		// pairs (λ·P beyond ExpScaled's cap, ~3.7e8): their sentinel
		// exponents would cancel in the product and yield garbage, while
		// the argument difference itself is still well conditioned.
		w := k.prefix[j+1] - k.prefix[x]
		return k.amp[x] * math.Expm1(k.model.Lambda*(w+k.ckpt[j]))
	}
	frac := k.endFrac[j] * k.startFrac[x]
	return k.amp[x] * (numeric.LdexpProduct(frac, int(k.endExp[j])+int(k.startExp[x])) - 1)
}

// RowValues writes the DP values Segment(x, j) + tail[j+1] of row x for
// every j ∈ [x, hi] into vals[:hi−x+1] and returns that slice; tail needs
// at least hi+2 entries and vals at least hi−x+1. Each value is
// bit-identical to the Segment call it stands for: the row's factors are
// loaded once and every candidate runs the same term as Segment. A
// caller scanning a window computes all its values first and then takes
// the argmin, which keeps the evaluations free of the comparison chain.
func (k *SegmentKernel) RowValues(x, hi int, tail, vals []float64) []float64 {
	vals = vals[:hi-x+1]
	if k.recInf[x] {
		for i := range vals {
			vals[i] = math.Inf(1) + tail[x+i+1]
		}
		return vals
	}
	amp, u, sf, se := k.amp[x], k.u(x), k.startFrac[x], k.startExp[x]
	for i := range vals {
		j := x + i
		v, ok := k.term(k.t(j)-u, j, amp, sf, se)
		if !ok {
			v = k.segmentSlow(x, j)
		}
		vals[i] = v + tail[j+1]
	}
	return vals
}

// SegmentWithCost returns the Proposition 1 expectation of executing
// positions [x, j] and closing with a checkpoint of explicit cost c —
// for cost models whose checkpoint cost depends on the segment start, so
// it cannot live in the precomputed end table. It pays one math.Expm1
// per call but still hoists the amplitude e^{λ·rec(x)}(1/λ+D) from the
// precomputed table; the result is bit-identical to
// Model.ExpectedTime(P(j+1)−P(x), c, rec(x)).
func (k *SegmentKernel) SegmentWithCost(x, j int, c float64) float64 {
	if k.recInf[x] {
		return math.Inf(1)
	}
	w := k.prefix[j+1] - k.prefix[x]
	arg := k.model.Lambda * (w + c)
	if arg > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return k.amp[x] * math.Expm1(arg)
}

// Bound returns a lower bound (up to Slack) on Segment(x, k) for every
// k ≥ j: the segment term evaluated at the suffix minimum of the end
// table. PrepareBound must have run since the last build. See the
// pruning notes on SegmentKernel.
func (k *SegmentKernel) Bound(x, j int) float64 {
	return k.Segment(x, k.BoundEnd(j))
}

// BoundEnd is the end position Bound evaluates: Bound(x, j) is
// Segment(x, BoundEnd(j)) bit for bit, so a row scan whose next
// candidate is that end can reuse the bound as its segment term.
func (k *SegmentKernel) BoundEnd(j int) int { return int(k.sufMin[j]) }

// Slack is the multiplicative safety factor for pruning comparisons:
// stop scanning only once Bound(x, j) ≥ best·Slack(). It covers the
// kernel's worst-case relative error with ample headroom, so pruning
// never discards a candidate that could strictly improve the incumbent.
func (k *SegmentKernel) Slack() float64 { return k.slack }
