package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expectation"
)

// ChainResult is the output of the chain optimizers: the optimal expected
// makespan and the checkpoint placement achieving it.
type ChainResult struct {
	// Expected is the optimal expected makespan E*.
	Expected float64
	// CheckpointAfter is the optimal checkpoint vector (final position
	// always true).
	CheckpointAfter []bool
}

// Positions returns the checkpointed positions of the result.
func (r ChainResult) Positions() []int {
	return checkpointPositions(r.CheckpointAfter)
}

// DPStats reports how much work a chain DP actually did and which arm
// of the solver portfolio did it.
type DPStats struct {
	// Transitions counts cost-oracle evaluations (evaluated DP
	// transitions for the scanning arms, Segment calls for the monotone
	// arm); the unpruned Proposition 3 recurrence evaluates n(n+1)/2.
	Transitions int64
	// Arm reports which solver arm produced the result.
	Arm ChainArm
	// Certified reports the quadrangle-inequality certificate consulted
	// by the dispatching portfolio (always true when Arm is ArmMonotone;
	// false for the pinned kernel solvers, which skip certification).
	Certified bool
}

// SolveChainDP computes the optimal checkpoint placement for the chain
// problem: the recurrence of Algorithm 1 (Proposition 3),
//
//	E(x) = min_{j ∈ [x, n)}  e^{λ·rec(x)} (1/λ + D)(e^{λ(Σ_{i=x}^{j} w_i + C_j)} − 1) + E(j+1)
//
// with E(n) = 0 and rec(x) = R₀ for x = 0, R_{x−1} otherwise. It is an
// auto-dispatching portfolio over two exact arms sharing the
// segment-expectation kernel (per-problem exponential tables: every
// transition a fused multiply, no transcendental calls):
//
//   - instances whose segment-cost matrix the quadrangle-inequality
//     certifier (expectation.CertifyQuadrangle) accepts run the
//     totally-monotone-matrix arm: O(n log n) oracle evaluations worst
//     case (see monotone.go), which opens million-position chains;
//   - everything else falls back to the kernel scan, whose exact
//     monotone bound stops each row as soon as the segment term alone
//     exceeds the incumbent — near-linear on realistic instances, O(n²)
//     worst case. Pruning provably never changes the result of the
//     kernel scan (see expectation.SegmentKernel).
//
// Both arms resolve exact decision ties toward the earliest end
// position, so they agree with each other except on ulp-scale
// floating-point ties; against the dense scan, the kernel arithmetic
// may resolve candidates tied to within its ~4·10⁻¹³ relative error the
// other way, so placements agree except on such ties and values agree
// to that tolerance (pinned by the property tests in
// kernel_property_test.go and monotone_property_test.go).
//
// The reported Expected is re-accumulated over the chosen placement with
// the reference arithmetic of Model.ExpectedTime, exactly as Algorithm 1
// would compute it, so when the placement matches SolveChainDPDense's
// the value is bit-identical to it.
func SolveChainDP(cp *ChainProblem) (ChainResult, error) {
	res, _, err := SolveChainDPStats(cp)
	return res, err
}

// SolveChainDPStats is SolveChainDP, additionally reporting which arm
// the portfolio dispatched to and how many cost-oracle evaluations it
// made.
func SolveChainDPStats(cp *ChainProblem) (ChainResult, DPStats, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, DPStats{}, err
	}
	kern, err := cp.kernel()
	if err != nil {
		return ChainResult{}, DPStats{}, err
	}
	cert := kern.CertifyQuadrangle()
	if cert.Certified {
		next, evals, _ := windowRows(kern)
		stats := DPStats{Transitions: evals, Arm: ArmMonotone, Certified: true}
		return chainResultFromNext(cp, kern, next), stats, nil
	}
	next, evals := solveChainKernelRows(kern)
	stats := DPStats{Transitions: evals, Arm: ArmKernel}
	return chainResultFromNext(cp, kern, next), stats, nil
}

// SolveChainDPKernel pins the kernel-scan arm: it never consults the
// certifier, so it serves as the universal fallback reference and the
// kernel-arm baseline in benchmarks and experiments (E13, E16).
func SolveChainDPKernel(cp *ChainProblem) (ChainResult, error) {
	res, _, err := SolveChainDPKernelStats(cp)
	return res, err
}

// SolveChainDPKernelStats is SolveChainDPKernel with the evaluated
// transition count.
func SolveChainDPKernelStats(cp *ChainProblem) (ChainResult, DPStats, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, DPStats{}, err
	}
	kern, err := cp.kernel()
	if err != nil {
		return ChainResult{}, DPStats{}, err
	}
	next, evals := solveChainKernelRows(kern)
	return chainResultFromNext(cp, kern, next), DPStats{Transitions: evals, Arm: ArmKernel}, nil
}

// solveChainKernelRows runs the pruned kernel scan over every row,
// returning the per-row decisions and the evaluated transition count.
func solveChainKernelRows(kern *expectation.SegmentKernel) ([]int32, int64) {
	kern.PrepareBound()
	n := kern.Len()
	best := make([]float64, n+1)
	next := make([]int32, n) // next[x] = end position j of the first segment of the optimal suffix plan from x
	var evals int64
	for x := n - 1; x >= 0; x-- {
		e, j, scanned := prunedRow(kern, x, best)
		best[x], next[x] = e, int32(j)
		evals += scanned
	}
	return next, evals
}

// prunedRow scans one Algorithm 1 row: min over j ∈ [x, n) of
// kern.Segment(x, j) + tail[j+1]. tail must have length n+1 with
// nonnegative (possibly +Inf) entries, which is what makes the early
// stop exact: every remaining candidate's segment term alone is at
// least Bound, so once that exceeds the incumbent (with the kernel's
// slack) none can strictly improve it. Ties keep the earliest j, like
// the dense scan. Returns the row optimum, its argmin, and the number
// of transitions evaluated.
//
// It is shared by SolveChainDP and solveOrderDPKernel, which call
// kern.PrepareBound before their first row; the bounded and live-set
// DPs keep specialized loops (per-layer initialization and
// tie-breaking, incremental per-transition costs) but reuse the same
// Bound/Slack stopping rule.
func prunedRow(kern *expectation.SegmentKernel, x int, tail []float64) (float64, int, int64) {
	n := kern.Len()
	slack := kern.Slack()
	bestE := infinity
	bestJ := n - 1
	var scanned int64
	seg := kern.Segment(x, x)
	for j := x; j < n; j++ {
		scanned++
		cur := seg + tail[j+1]
		if cur < bestE {
			bestE = cur
			bestJ = j
		}
		if j+1 == n {
			break
		}
		// The bound is Segment(x, end); when end is the next candidate,
		// as it is wherever the end table increases, it is that
		// candidate's segment term too.
		end := kern.BoundEnd(j + 1)
		if seg = kern.Segment(x, end); seg >= bestE*slack {
			break
		}
		if end != j+1 {
			seg = kern.Segment(x, j+1)
		}
	}
	return bestE, bestJ, scanned
}

// kernel builds the segment-expectation kernel for the problem.
func (cp *ChainProblem) kernel() (*expectation.SegmentKernel, error) {
	return expectation.NewSegmentKernel(cp.Model, cp.Weights, cp.Ckpt, cp.InitialRecovery, cp.Rec)
}

// expectedAlong re-accumulates the expectation of the placement ck with
// the reference arithmetic over the kernel's prefix table, associating
// exactly like the Algorithm 1 recursion (segment + suffix, right to
// left): it walks the segments back from the final checkpoint. Each
// segment term is SegmentWithCost, bit-identical to Model.ExpectedTime
// with the amplitude's exponential taken from the kernel table.
func (cp *ChainProblem) expectedAlong(kern *expectation.SegmentKernel, ck []bool) float64 {
	total := 0.0
	for j := cp.Len() - 1; j >= 0; {
		x := j
		for x > 0 && !ck[x-1] {
			x--
		}
		total = kern.SegmentWithCost(x, j, cp.Ckpt[j]) + total
		j = x - 1
	}
	return total
}

// SolveChainDPDense is the unaccelerated iterative form of Algorithm 1:
// prefix sums make each segment expectation O(1), for the O(n²) total
// cost stated by Proposition 3, with every transition paying the full
// exp/expm1 evaluation of Model.ExpectedTime. It is the reference the
// kernel fast path is tested against and the kernel-off arm of
// experiment E13.
func SolveChainDPDense(cp *ChainProblem) (ChainResult, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, err
	}
	n := cp.Len()
	prefix := make([]float64, n+1)
	for i, w := range cp.Weights {
		prefix[i+1] = prefix[i] + w
	}
	best := make([]float64, n+1)
	next := make([]int, n) // next[x] = end position j of the first segment of the optimal suffix plan from x
	for x := n - 1; x >= 0; x-- {
		rec := cp.recoveryBefore(x)
		best[x] = infinity
		next[x] = n - 1
		for j := x; j < n; j++ {
			w := prefix[j+1] - prefix[x]
			cur := cp.Model.ExpectedTime(w, cp.Ckpt[j], rec) + best[j+1]
			if cur < best[x] {
				best[x] = cur
				next[x] = j
			}
		}
	}
	ck := make([]bool, n)
	for x := 0; x < n; {
		j := next[x]
		ck[j] = true
		x = j + 1
	}
	return ChainResult{Expected: best[0], CheckpointAfter: ck}, nil
}

// BruteForceChain enumerates all 2^{n−1} checkpoint placements (the final
// position is always checkpointed) and returns the best. It validates the
// DP on small chains; n is capped to keep the enumeration tractable.
func BruteForceChain(cp *ChainProblem) (ChainResult, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, err
	}
	n := cp.Len()
	const maxN = 24
	if n > maxN {
		return ChainResult{}, fmt.Errorf("core: brute force limited to %d positions, got %d", maxN, n)
	}
	bestE := infinity
	var bestCk []bool
	ck := make([]bool, n)
	ck[n-1] = true
	for mask := 0; mask < 1<<(n-1); mask++ {
		for i := 0; i < n-1; i++ {
			ck[i] = mask&(1<<i) != 0
		}
		e, err := cp.Makespan(ck)
		if err != nil {
			return ChainResult{}, err
		}
		if e < bestE {
			bestE = e
			bestCk = append(bestCk[:0], ck...)
		}
	}
	out := make([]bool, n)
	copy(out, bestCk)
	return ChainResult{Expected: bestE, CheckpointAfter: out}, nil
}

// AlwaysCheckpoint returns the baseline placement that checkpoints after
// every task.
func AlwaysCheckpoint(cp *ChainProblem) (ChainResult, error) {
	n := cp.Len()
	ck := make([]bool, n)
	for i := range ck {
		ck[i] = true
	}
	e, err := cp.Makespan(ck)
	if err != nil {
		return ChainResult{}, err
	}
	return ChainResult{Expected: e, CheckpointAfter: ck}, nil
}

// NeverCheckpoint returns the baseline placement with only the mandatory
// final checkpoint.
func NeverCheckpoint(cp *ChainProblem) (ChainResult, error) {
	n := cp.Len()
	ck := make([]bool, n)
	ck[n-1] = true
	e, err := cp.Makespan(ck)
	if err != nil {
		return ChainResult{}, err
	}
	return ChainResult{Expected: e, CheckpointAfter: ck}, nil
}

// PeriodicCheckpoint returns the baseline that checkpoints as soon as the
// accumulated work since the last checkpoint reaches the given period —
// the divisible-load policy (Young/Daly) transplanted to non-divisible
// tasks. A non-positive period degenerates to AlwaysCheckpoint.
func PeriodicCheckpoint(cp *ChainProblem, period float64) (ChainResult, error) {
	n := cp.Len()
	ck := make([]bool, n)
	var acc float64
	for i := 0; i < n; i++ {
		acc += cp.Weights[i]
		if acc >= period {
			ck[i] = true
			acc = 0
		}
	}
	ck[n-1] = true
	e, err := cp.Makespan(ck)
	if err != nil {
		return ChainResult{}, err
	}
	return ChainResult{Expected: e, CheckpointAfter: ck}, nil
}

// ErrUnknownStrategy reports a spelling ChainStrategy does not know.
var ErrUnknownStrategy = errors.New("unknown strategy")

// ChainStrategy resolves a chain checkpoint strategy spelling — dp,
// always, never, daly, young or every:k — to its checkpoint vector.
// The periodic rules size their period from the mean checkpoint cost
// and lambda, which may differ from the rate cp was planned under.
func ChainStrategy(cp *ChainProblem, name string, lambda float64) ([]bool, error) {
	var res ChainResult
	var err error
	switch {
	case name == "dp":
		res, err = SolveChainDP(cp)
	case name == "always":
		res, err = AlwaysCheckpoint(cp)
	case name == "never":
		res, err = NeverCheckpoint(cp)
	case name == "daly" || name == "young":
		meanC := 0.0
		for _, c := range cp.Ckpt {
			meanC += c
		}
		meanC /= float64(len(cp.Ckpt))
		period := expectation.DalyPeriod(meanC, lambda)
		if name == "young" {
			period = expectation.YoungPeriod(meanC, lambda)
		}
		res, err = PeriodicCheckpoint(cp, period)
	case strings.HasPrefix(name, "every:"):
		k, err := strconv.Atoi(name[len("every:"):])
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("bad strategy %q: want every:k with a positive integer k", name)
		}
		ck := make([]bool, cp.Len())
		for i := range ck {
			ck[i] = (i+1)%k == 0
		}
		ck[len(ck)-1] = true
		return ck, nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownStrategy, name)
	}
	return res.CheckpointAfter, err
}
