package core

import (
	"fmt"

	"repro/internal/expectation"
)

// This file holds solver variants beyond the paper's Algorithm 1:
//
//   - SolveChainDPBounded: optimal placement using at most k checkpoints
//     (checkpoint storage is often a constrained resource), in O(n²k);
//   - SolveChainDPHomogeneous: a decision-monotone pruned solver for the
//     homogeneous-cost case, exploiting a Monge property of the
//     segment-cost matrix. It is an ablation of the paper's O(n²) bound:
//     the generality of per-task costs is what blocks the pruning.

// SolveChainDPBounded computes the optimal placement subject to using at
// most maxCheckpoints checkpoints (including the mandatory final one).
// The DP layers the Algorithm 1 recurrence by remaining budget:
// E_k(x) = min_j segment(x, j) + E_{k−1}(j+1). Like SolveChainDP it is
// a certifier-gated portfolio: instances certified totally monotone run
// the layered divide-and-conquer arm (O(k·n log n) oracle evaluations,
// see boundedMonotoneLayers), everything else the kernel scan with the
// exact monotone pruning bound (O(n²·k) worst case). Transitions are
// evaluated through the segment-expectation kernel (the segment term
// does not depend on the budget layer, so one kernel serves every
// layer); the reported Expected is re-accumulated over the chosen
// placement with the reference arithmetic, like SolveChainDP.
func SolveChainDPBounded(cp *ChainProblem, maxCheckpoints int) (ChainResult, error) {
	res, _, err := SolveChainDPBoundedStats(cp, maxCheckpoints)
	return res, err
}

// SolveChainDPBoundedStats is SolveChainDPBounded, additionally
// reporting the dispatched arm and its oracle-evaluation count.
func SolveChainDPBoundedStats(cp *ChainProblem, maxCheckpoints int) (ChainResult, DPStats, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, DPStats{}, err
	}
	n := cp.Len()
	if maxCheckpoints < 1 {
		return ChainResult{}, DPStats{}, fmt.Errorf("core: need at least one checkpoint (the final one), got budget %d", maxCheckpoints)
	}
	if maxCheckpoints > n {
		maxCheckpoints = n
	}
	kern, err := cp.kernel()
	if err != nil {
		return ChainResult{}, DPStats{}, err
	}
	var (
		next  [][]int
		stats DPStats
	)
	if cert := kern.CertifyQuadrangle(); cert.Certified {
		var evals int64
		_, next, evals = boundedMonotoneLayers(kern, maxCheckpoints)
		stats = DPStats{Transitions: evals, Arm: ArmMonotone, Certified: true}
	} else {
		var evals int64
		next, evals = boundedKernelLayers(kern, maxCheckpoints)
		stats = DPStats{Transitions: evals, Arm: ArmKernel}
	}
	res, err := boundedResultFromNext(cp, next, maxCheckpoints)
	return res, stats, err
}

// boundedKernelLayers runs the kernel-scan arm of the budgeted DP: each
// layer's inner scan is pruned with the kernel's exact monotone bound.
func boundedKernelLayers(kern *expectation.SegmentKernel, maxCheckpoints int) ([][]int, int64) {
	kern.PrepareBound()
	n := kern.Len()
	slack := kern.Slack()
	var evals int64
	// best[k][x]: optimal expected time for positions x..n−1 with at
	// most k checkpoints. k = 0 is infeasible (every plan ends with a
	// checkpoint).
	best := make([][]float64, maxCheckpoints+1)
	next := make([][]int, maxCheckpoints+1)
	for k := range best {
		best[k] = make([]float64, n+1)
		next[k] = make([]int, n)
		for x := 0; x < n; x++ {
			best[k][x] = infinity
			next[k][x] = -1
		}
	}
	for k := 1; k <= maxCheckpoints; k++ {
		for x := n - 1; x >= 0; x-- {
			// Option: single segment to the end.
			evals++
			best[k][x] = kern.Segment(x, n-1)
			next[k][x] = n - 1
			if k == 1 {
				continue
			}
			for j := x; j < n-1; j++ {
				if best[k-1][j+1] != infinity {
					evals++
					cur := kern.Segment(x, j) + best[k-1][j+1]
					if cur < best[k][x] {
						best[k][x] = cur
						next[k][x] = j
					}
				}
				if kern.Bound(x, j+1) >= best[k][x]*slack {
					break
				}
			}
		}
	}
	return next, evals
}

// boundedResultFromNext reconstructs the bounded plan from the layered
// decisions and re-accumulates the value with the reference arithmetic,
// associating like the layered recurrence (segment + suffix, right to
// left).
func boundedResultFromNext(cp *ChainProblem, next [][]int, maxCheckpoints int) (ChainResult, error) {
	n := cp.Len()
	ck := make([]bool, n)
	k := maxCheckpoints
	segStarts := make([]int, 0, maxCheckpoints)
	segEnds := make([]int, 0, maxCheckpoints)
	for x := 0; x < n; {
		j := next[k][x]
		if j < 0 {
			return ChainResult{}, fmt.Errorf("core: internal reconstruction failure at x=%d k=%d", x, k)
		}
		ck[j] = true
		segStarts = append(segStarts, x)
		segEnds = append(segEnds, j)
		x = j + 1
		if k > 1 {
			k--
		}
	}
	prefix := make([]float64, n+1)
	for i, w := range cp.Weights {
		prefix[i+1] = prefix[i] + w
	}
	total := 0.0
	for i := len(segStarts) - 1; i >= 0; i-- {
		x, j := segStarts[i], segEnds[i]
		total = cp.Model.ExpectedTime(prefix[j+1]-prefix[x], cp.Ckpt[j], cp.recoveryBefore(x)) + total
	}
	return ChainResult{Expected: total, CheckpointAfter: ck}, nil
}

// IsHomogeneous reports whether all checkpoint costs and all recovery
// costs are constant (including the initial recovery matching R), the
// precondition of SolveChainDPHomogeneous.
func (cp *ChainProblem) IsHomogeneous() bool {
	n := cp.Len()
	if n == 0 {
		return false
	}
	c0, r0 := cp.Ckpt[0], cp.Rec[0]
	for i := 1; i < n; i++ {
		if cp.Ckpt[i] != c0 || cp.Rec[i] != r0 {
			return false
		}
	}
	return cp.InitialRecovery == r0
}

// SolveChainDPHomogeneous solves the constant-cost chain problem with a
// decision-monotone pruned scan.
//
// Why the pruning is sound: with constant C and R, the segment cost
// cost(x, j) = e^{λR}(1/λ+D)(e^{λ(P(j+1)−P(x)+C)} − 1) satisfies the
// (concave) Monge / quadrangle inequality
//
//	cost(x, j) + cost(x+1, j+1) ≤ cost(x, j+1) + cost(x+1, j),
//
// because it factors as a(x)·b(j) + const with a(x) = e^{−λP(x)}
// decreasing and b(j) = e^{λ(P(j+1)+C)} increasing: the cross-difference
// telescopes to (b(j+1) − b(j))(a(x+1) − a(x)) ≤ 0. Monge costs make the
// optimal first-checkpoint position next[x] of the suffix recurrence
// E(x) = min_{j≥x} cost(x, j) + E(j+1) nondecreasing in x, so when
// processing x right-to-left the scan can stop at next[x+1]. Per-task
// costs break the monotonicity of b (and of the recovery factor), which
// is why the paper's general algorithm stays O(n²).
//
// The pruned scan is exact whenever IsHomogeneous holds; it is typically
// near-linear (the brackets [x, next[x+1]] are short when checkpoints are
// frequent) with an O(n²) worst case in checkpoint-free regimes. Tests
// verify it against SolveChainDP on random homogeneous instances.
func SolveChainDPHomogeneous(cp *ChainProblem) (ChainResult, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, err
	}
	if !cp.IsHomogeneous() {
		return ChainResult{}, fmt.Errorf("core: homogeneous solver requires constant C, R and R₀ = R")
	}
	n := cp.Len()
	prefix := make([]float64, n+1)
	for i, w := range cp.Weights {
		prefix[i+1] = prefix[i] + w
	}
	c := cp.Ckpt[0]
	r := cp.Rec[0]
	best := make([]float64, n+1)
	next := make([]int, n+1)
	next[n] = n - 1 // sentinel upper bracket for x = n−1
	cost := func(x, j int) float64 {
		return cp.Model.ExpectedTime(prefix[j+1]-prefix[x], c, r)
	}
	for x := n - 1; x >= 0; x-- {
		// Monotone decisions: next[x] ≤ next[x+1]. (With Monge costs the
		// optimal j is nondecreasing in x; we scan only the bracket.)
		hi := n - 1
		if x+1 <= n-1 {
			hi = next[x+1]
		}
		bestE := infinity
		bestJ := hi
		for j := x; j <= hi; j++ {
			cur := cost(x, j) + best[j+1]
			if cur < bestE {
				bestE = cur
				bestJ = j
			}
		}
		best[x] = bestE
		next[x] = bestJ
	}
	ck := make([]bool, n)
	for x := 0; x < n; {
		j := next[x]
		ck[j] = true
		x = j + 1
	}
	return ChainResult{Expected: best[0], CheckpointAfter: ck}, nil
}
