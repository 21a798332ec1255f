package core

import (
	"fmt"
	"math/bits"

	"repro/internal/expectation"
)

// This file holds the monotone-matrix arms of the chain placement DPs:
// near-linear exact solvers for instances whose segment-cost matrix is
// certified totally monotone (concave quadrangle inequality, see
// expectation.CertifyQuadrangle). SolveChainDP and SolveChainDPBounded
// auto-dispatch onto them; SolveChainDPMonotone exposes the arm
// directly and refuses uncertified instances.
//
//   - windowRows: the self-referential suffix recurrence
//     E(x) = min_j cost(x, j) + E(j+1), rows right to left. The
//     quadrangle inequality makes the leftmost argmin monotone,
//     next[x] ≤ next[x+1], so row x scans only the argmin window
//     [x, next[x+1]]: one oracle evaluation per candidate, O(1) per row
//     when checkpoints are frequent. The first window wider than
//     2⌈log₂(n+1)⌉ hands the remaining rows over, once, to
//     monotoneDeque: the concave least-weight-subsequence candidate
//     algorithm (Hirschberg–Larmore / Galil–Giancarlo family), built
//     from that window's candidates alone — each candidate owns the
//     interval of future rows where it is the incumbent minimum, a
//     gallop plus binary search finds the single crossover the
//     inequality guarantees, and spans leave the deque's bottom as
//     their rows are visited. O(n log n) oracle evaluations worst case.
//   - boundedMonotoneLayers: the budgeted recurrence
//     E_k(x) = min_j cost(x, j) + E_{k−1}(j+1) — each layer's tails come
//     from the previous layer, so rows form an offline totally monotone
//     matrix and divide-and-conquer over the monotone argmins solves a
//     layer in O(n log n), O(k·n log n) in total.
//
// Both arms search with the kernel arithmetic (the same Segment oracle
// the pruned kernel scan compares) and re-derive the reported Expected
// through the reference arithmetic of Model.ExpectedTime, so a matching
// placement yields a bit-identical value. Placements match the kernel
// arm's except on ulp-scale floating-point decision ties (the same
// caveat SolveChainDP documents for kernel-vs-dense), because both
// resolve exact ties toward the earliest end position.

// ChainArm identifies which solver arm produced a chain DP result.
type ChainArm uint8

const (
	// ArmKernel is the pruned kernel scan (exact monotone bound, O(n²)
	// worst case) — the arm every instance is eligible for.
	ArmKernel ChainArm = iota
	// ArmMonotone is the totally-monotone-matrix arm, dispatched only on
	// instances certified by expectation.CertifyQuadrangle.
	ArmMonotone
	// ArmDense is the unaccelerated Proposition 3 loop (reference only;
	// the dispatcher never selects it).
	ArmDense
)

// String names the arm for stats reporting and CLI output.
func (a ChainArm) String() string {
	switch a {
	case ArmKernel:
		return "kernel"
	case ArmMonotone:
		return "monotone"
	case ArmDense:
		return "dense"
	}
	return "invalid"
}

// SolveChainDPMonotone computes the Proposition 3 optimum with the
// monotone-matrix arm. It certifies the instance first and fails with
// an error naming the broken condition when the segment-cost matrix is
// not totally monotone — use SolveChainDP for the auto-dispatching
// portfolio that falls back to the kernel arm instead.
func SolveChainDPMonotone(cp *ChainProblem) (ChainResult, error) {
	res, _, err := SolveChainDPMonotoneStats(cp)
	return res, err
}

// SolveChainDPMonotoneStats is SolveChainDPMonotone, additionally
// reporting the oracle-evaluation count.
func SolveChainDPMonotoneStats(cp *ChainProblem) (ChainResult, DPStats, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, DPStats{}, err
	}
	kern, err := cp.kernel()
	if err != nil {
		return ChainResult{}, DPStats{}, err
	}
	cert := kern.CertifyQuadrangle()
	if !cert.Certified {
		return ChainResult{}, DPStats{}, fmt.Errorf("core: instance not certified totally monotone (%s); use SolveChainDP", cert.Reason)
	}
	next, evals, _ := windowRows(kern)
	stats := DPStats{Transitions: evals, Arm: ArmMonotone, Certified: true}
	return chainResultFromNext(cp, kern, next), stats, nil
}

// windowRows solves the rows of a certified instance right to left by
// the exact argmin-window scan: with the quadrangle inequality, the
// leftmost argmin never decreases as the start moves right,
// next[x] ≤ next[x+1], so row x scans only j ∈ [x, next[x+1]] — one
// oracle evaluation per candidate, ties to the earliest j like the
// dense scan; one kernel row call (RowValues) evaluates the whole window
// before the argmin scan. The first window wider than 2⌈log₂(n+1)⌉
// candidates hands the remaining rows over to the candidate deque
// (monotoneDeque), which keeps the O(n log n) worst case when segments
// are long. It returns the per-row decisions, the oracle-evaluation
// count, and the row at which the deque took over (−1 when every row
// was a window scan).
//
// The rows' values and decisions live in the kernel's start tables
// (SpendStarts): row x's last kernel call with start x comes before its
// write, and every later call starts at a row below x. The returned
// next aliases the kernel, which must be rebuilt with Reinit before any
// other use.
func windowRows(kern *expectation.SegmentKernel) (next []int32, evals int64, handover int) {
	n := kern.Len()
	best, next := kern.SpendStarts()
	limit := 2 * bits.Len(uint(n)) // 2⌈log₂(n+1)⌉
	vals := make([]float64, limit)
	hi := n - 1 // next[x+1]; the last row's only candidate is n−1
	for x := n - 1; x >= 0; x-- {
		if hi-x+1 > limit {
			return next, evals + monotoneDeque(kern, best, next, x, hi), x
		}
		bestE, bestJ := infinity, x
		for i, v := range kern.RowValues(x, hi, best, vals) {
			if v < bestE {
				bestE, bestJ = v, x+i
			}
		}
		evals += int64(hi - x + 1)
		best[x], next[x] = bestE, int32(bestJ)
		hi = bestJ
	}
	return next, evals, -1
}

// span is one candidate's claim in the concave-LWS deque: end position
// j is the incumbent minimum for every row in [lo, hi], and vhi is its
// value at row hi, which the next insertion's first comparison reuses.
// lo strictly decreases from the bottom (front) of the deque to the top
// (back); the top span always starts at row 0, and together the spans
// cover every row the scan has yet to visit.
type span struct {
	j, lo, hi int32
	vhi       float64
}

// monotoneDeque solves rows x0, x0−1, …, 0 with the concave
// least-weight-subsequence candidate algorithm (Hirschberg–Larmore /
// Galil–Giancarlo family), given best[j+1] for every j > x0 and
// jmax = next[x0+1]. By the same monotonicity the window scan relies
// on, no row ≤ x0 ends its first segment past jmax, so the deque starts
// from the candidates (x0, jmax] alone. Each candidate owns the interval
// of future rows where it is the incumbent minimum; a new, smaller
// candidate beats an older one on a down-set of rows, and the single
// crossover the quadrangle inequality guarantees is found by galloping
// and binary search. Spans whose rows have all been visited leave from
// the bottom, so the owner of the current row is always the bottom span.
// Ties resolve toward the smaller end position, matching the dense
// scan's earliest-j rule. Returns the oracle-evaluation count.
//
// best and next may be the kernel's spent start tables (see windowRows):
// every val call starts at the current row x or below it, so row x's
// write follows its last read of x's start entries.
func monotoneDeque(kern *expectation.SegmentKernel, best []float64, next []int32, x0, jmax int) int64 {
	var evals int64
	val := func(x, j int) float64 {
		evals++
		return kern.Segment(x, j) + best[j+1]
	}
	// maxWin returns the largest row t in [lo, hi] where candidate jn
	// still beats jo (ties to jn: jn < jo always holds here) and jn's
	// value there, or lo−1 when it never wins. The win rows form a
	// down-set (single crossover), and the crossover typically sits just
	// below hi, so it gallops down from hi with doubling steps before
	// binary-searching the bracket: O(log(hi − t)) oracle calls instead
	// of O(log(hi − lo)).
	maxWin := func(lo, hi, jn, jo int) (int, float64) {
		t, vt := lo-1, 0.0
		probe, step, lastLose := hi, 1, hi+1
		for probe >= lo {
			if v := val(probe, jn); v <= val(probe, jo) {
				t, vt = probe, v
				break
			}
			lastLose = probe
			probe -= step
			step <<= 1
		}
		for blo, bhi := max(probe+1, lo), lastLose-1; blo <= bhi; {
			mid := int(uint(blo+bhi) >> 1)
			if v := val(mid, jn); v <= val(mid, jo) {
				t, vt, blo = mid, v, mid+1
			} else {
				bhi = mid - 1
			}
		}
		return t, vt
	}
	dq := make([]span, 0, 16)
	head := 0 // dq[head] is the bottom span; dq[:head] are dead
	// insert makes candidate jn (smaller than every candidate in the
	// deque) available to rows [0, xr]. It competes upward from the top
	// (the lowest-row span). When the comparison reached row xr itself
	// it returns that row's minimum and its end position; otherwise
	// rowJ is −1.
	insert := func(jn, xr int) (rowJ int, rowVal float64) {
		rowJ = -1
		wonUpTo, vWon := -1, 0.0
		for len(dq) > head {
			top := dq[len(dq)-1]
			hiEff := min(int(top.hi), xr)
			vo := top.vhi
			if hiEff < int(top.hi) {
				vo = val(hiEff, int(top.j))
			}
			vn := val(hiEff, jn)
			if vn <= vo {
				wonUpTo, vWon = hiEff, vn
				if hiEff == xr {
					// Wins at row xr → wins every row below it; every
					// span left holds only rows ≤ xr, so all retire.
					rowJ, rowVal = jn, vn
					dq = dq[:head]
					break
				}
				dq = dq[:len(dq)-1]
				continue
			}
			if hiEff == xr {
				// Loses at row xr → the incumbent still owns it.
				rowJ, rowVal = int(top.j), vo
			}
			// Loses at hiEff: the crossover sits inside [top.lo, hiEff).
			if t, vt := maxWin(int(top.lo), hiEff-1, jn, int(top.j)); t >= int(top.lo) {
				dq[len(dq)-1].lo = int32(t + 1)
				if t > wonUpTo {
					wonUpTo, vWon = t, vt
				}
			}
			break
		}
		if wonUpTo >= 0 {
			dq = append(dq, span{j: int32(jn), lo: 0, hi: int32(wonUpTo), vhi: vWon})
		}
		return rowJ, rowVal
	}
	dq = append(dq, span{j: int32(jmax), lo: 0, hi: int32(x0), vhi: val(x0, jmax)})
	for j := jmax - 1; j > x0; j-- {
		insert(j, x0)
	}
	for x := x0; x >= 0; x-- {
		// Retire the spans whose rows are all visited, compacting once
		// the dead prefix outgrows the live spans.
		for int(dq[head].lo) > x {
			head++
		}
		if head > len(dq)-head {
			dq = dq[:copy(dq, dq[head:])]
			head = 0
		}
		rowJ, rowVal := insert(x, x)
		if rowJ < 0 {
			rowJ = int(dq[head].j)
			rowVal = val(x, rowJ)
		}
		best[x], next[x] = rowVal, int32(rowJ)
	}
	return evals
}

// boundedMonotoneLayers runs the budgeted DP on a certified instance:
// layer k's row minima are computed by divide-and-conquer over the
// monotone argmins (the previous layer's values are fixed, so each
// layer is an offline totally monotone matrix). Layer 1 is the single
// mandatory segment to the end, filled directly like the kernel arm.
// Returns per-layer values and decisions plus the oracle-evaluation
// count. Exact value ties resolve toward the earliest end position
// (the kernel arm's layered scan keeps the single-segment option on
// ties instead — another ulp-scale-tie-only divergence).
func boundedMonotoneLayers(kern *expectation.SegmentKernel, maxCheckpoints int) ([][]float64, [][]int, int64) {
	kern.PrepareBound()
	n := kern.Len()
	best := make([][]float64, maxCheckpoints+1)
	next := make([][]int, maxCheckpoints+1)
	var evals int64
	for k := range best {
		best[k] = make([]float64, n+1)
		next[k] = make([]int, n)
		for x := 0; x < n; x++ {
			best[k][x] = infinity
			next[k][x] = -1
		}
	}
	for x := 0; x < n; x++ {
		evals++
		best[1][x] = kern.Segment(x, n-1)
		next[1][x] = n - 1
	}
	slack := kern.Slack()
	for k := 2; k <= maxCheckpoints; k++ {
		tail := best[k-1]
		cur, nxt := best[k], next[k]
		// eval is the layer's matrix entry: segment [x, j] plus the
		// budget-(k−1) tail (tail[n] = 0 covers the single-segment row).
		eval := func(x, j int) float64 {
			evals++
			return kern.Segment(x, j) + tail[j+1]
		}
		var solve func(xlo, xhi, jlo, jhi int)
		solve = func(xlo, xhi, jlo, jhi int) {
			if xlo > xhi {
				return
			}
			xm := int(uint(xlo+xhi) >> 1)
			lo := max(jlo, xm)
			bestE, bestJ := infinity, lo
			for j := lo; j <= jhi; j++ {
				if v := eval(xm, j); v < bestE {
					bestE, bestJ = v, j
				}
				// The kernel's exact monotone bound applies per row just
				// like in prunedRow: tails are nonnegative, so once the
				// segment term alone exceeds the incumbent (with slack) no
				// later candidate can strictly improve — pruning never
				// changes the leftmost argmin.
				if j+1 <= jhi && kern.Bound(xm, j+1) >= bestE*slack {
					break
				}
			}
			cur[xm], nxt[xm] = bestE, bestJ
			solve(xlo, xm-1, jlo, bestJ)
			solve(xm+1, xhi, bestJ, jhi)
		}
		solve(0, n-1, 0, n-1)
	}
	return best, next, evals
}

// chainResultFromNext reconstructs the checkpoint vector from per-row
// decisions and re-derives the value through the reference arithmetic.
func chainResultFromNext(cp *ChainProblem, kern *expectation.SegmentKernel, next []int32) ChainResult {
	n := cp.Len()
	ck := make([]bool, n)
	for x := 0; x < n; {
		j := int(next[x])
		ck[j] = true
		x = j + 1
	}
	return ChainResult{Expected: cp.expectedAlong(kern, ck), CheckpointAfter: ck}
}
