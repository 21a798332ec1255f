package expectation

// This file implements the runtime quadrangle-inequality certifier that
// gates the monotone-matrix chain solvers (internal/core). Total
// monotonicity is a property of the (distribution, cost-model) instance,
// not of the algorithm: the paper's general per-task costs can break it
// (which is exactly why Proposition 3 settles for O(n²)), so the fast
// arm may only run on instances whose cost matrix provably has the
// structure.
//
// # What is certified
//
// The chain DP transition cost is the Proposition 1 segment expectation
//
//	cost(x, j) = amp(x)·(e^{t_j − u_x} − 1),   amp(x) = e^{λ·rec(x)}(1/λ + D),
//
// with t_j = λ(P(j+1) + C_j) nondecreasing exactly when checkpoint-cost
// jumps never outweigh task weights (λ(w_{j+1} + C_{j+1} − C_j) ≥ 0),
// and u_x = λ·P(x) always nondecreasing. For x < x' and j < j' the
// cross-difference telescopes to
//
//	cost(x, j') + cost(x', j) − cost(x, j) − cost(x', j')
//	  = (e^{t_{j'}} − e^{t_j}) · (s(x) − s(x')),   s(x) = amp(x)·e^{−u_x},
//
// so the concave quadrangle inequality (QI)
//
//	cost(x, j) + cost(x', j') ≤ cost(x, j') + cost(x', j)
//
// holds for every quadruple iff t is nondecreasing and s is
// nonincreasing — and because the cross-difference telescopes over
// adjacent pairs, checking the 2(n−1) adjacent margins is a complete
// boundary check, not a heuristic sample. In log space the s condition
// is λ·rec(x+1) − λ·rec(x) ≤ u_{x+1} − u_x = λ·w_x: recovery-cost jumps
// must not outweigh task weights. Constant C and R (the homogeneous
// case of SolveChainDPHomogeneous) trivially satisfy both.
//
// QI survives the kernel's +Inf saturation: the largest-argument entry
// of any quadruple is cost(x, j') (smallest u, largest t under the
// certified monotonicities), so whenever any entry saturates, a
// right-hand-side entry saturates too and the inequality holds in the
// extended reals. Rows with λ·rec(x) past numeric.MaxExpArg would break
// this dominance argument, so they fail certification outright.
//
// # Slack
//
// The boundary checks compare the kernel's precomputed tables directly
// and accept only outright floating-point monotonicity — a margin lost
// to rounding rejects the instance, which merely costs the fallback to
// the kernel arm, never correctness. The sampled checks re-evaluate
// cost quadruples through SegmentKernel.Segment, whose fast path
// carries the documented ~4·10⁻¹³ relative error; they therefore flag a
// violation only beyond the kernel's pruning Slack, mirroring how the
// pruned scan treats cross-path comparisons. Within that slack a
// certified instance may still resolve ulp-scale decision ties
// differently from the dense scan — the same tie caveat SolveChainDP
// already documents for the kernel arm.

// QICertificate is the outcome of CertifyQuadrangle.
type QICertificate struct {
	// Certified reports whether the instance's segment-cost matrix was
	// certified totally monotone (concave quadrangle inequality), making
	// the monotone-matrix DP arms exact for it.
	Certified bool
	// Reason names the first failed condition when not certified ("" when
	// certified).
	Reason string
	// BoundaryChecks counts the adjacent-pair margin comparisons made.
	BoundaryChecks int
	// SampledChecks counts the evaluated cost-quadruple checks made.
	SampledChecks int
}

// qiSampleBudget is the number of deterministic quadruple probes of the
// evaluated cost matrix; the factored boundary checks are already
// complete, so the samples only guard the evaluation path itself.
const qiSampleBudget = 128

// CertifyQuadrangle decides whether the kernel's segment-cost matrix
// satisfies the concave quadrangle inequality, the entry ticket to the
// totally-monotone (SMAWK-family) chain solvers. It runs in O(n): the
// complete adjacent boundary checks of the factored tables plus a
// deterministic sample of evaluated cost quadruples (see the file
// comment for the exact conditions and the slack contract). The
// certificate depends only on the instance, never on random state.
func (k *SegmentKernel) CertifyQuadrangle() QICertificate {
	n := k.Len()
	cert := QICertificate{}
	if k.anyRecInf {
		cert.Reason = "recovery amplitude overflows (λ·rec past exp range)"
		return cert
	}
	// Boundary checks: t nondecreasing (end factor) and λ·rec − u
	// nonincreasing (log of the amplitude-weighted start factor). Both
	// ran in the kernel's build loop, which recorded the first failing
	// position of each.
	if k.endBreak >= 0 {
		cert.BoundaryChecks = k.endBreak + 1
		cert.Reason = "end table not monotone (checkpoint-cost drop outweighs a task weight)"
		return cert
	}
	cert.BoundaryChecks = n - 1
	if k.startBreak >= 0 {
		cert.BoundaryChecks += k.startBreak + 1
		cert.Reason = "start factor not monotone (recovery-cost jump outweighs a task weight)"
		return cert
	}
	cert.BoundaryChecks += n - 1
	// Sampled checks: evaluated QI on a deterministic low-discrepancy
	// sample of quadruples x < x' ≤ j < j', tolerated up to the kernel
	// slack. A violation here means the evaluation path disagrees with
	// the certified factored structure — fall back to the kernel arm.
	if n >= 3 {
		slack := k.Slack()
		state := uint64(0x9e3779b97f4a7c15)
		draw := func(span int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(span))
		}
		for i := 0; i < qiSampleBudget; i++ {
			x := draw(n - 2)
			xp := x + 1 + draw(n-2-x) // x < x' ≤ n−2
			j := xp + draw(n-1-xp)    // x' ≤ j ≤ n−2
			jp := j + 1 + draw(n-1-j) // j < j' ≤ n−1
			rhs := k.Segment(x, jp) + k.Segment(xp, j)
			lhs := k.Segment(x, j) + k.Segment(xp, jp)
			cert.SampledChecks++
			if lhs > rhs*slack {
				cert.Reason = "sampled quadrangle-inequality violation"
				return cert
			}
		}
	}
	cert.Certified = true
	return cert
}
