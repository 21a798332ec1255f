// Package heuristic implements the third extension of Section 6:
// checkpoint scheduling under general (non-memoryless) failure laws, where
// no closed-form expected makespan exists. Following the approach the
// paper credits to Bouguerra, Trystram and Wagner [20] (and to [13]), the
// heuristics maximize the expected amount of work saved before the first
// failure instead of minimizing the expected makespan.
//
// For a chain with checkpoints at positions j₁ < … < j_m (the last
// position always checkpointed), let t_k be the wall-clock completion time
// of checkpoint k and ΔW_k the work it secures; the objective is
//
//	E[saved] = Σ_k ΔW_k · S(t_k),
//
// where S is the platform survival function — the probability the platform
// has not failed by time t, conditioned on the processors' current ages.
package heuristic

import (
	"fmt"
	"math"

	"repro/internal/failure"
)

// Survival is a platform survival function: S(t) = P(no platform failure
// in the next t time units | current processor ages).
type Survival func(t float64) float64

// FreshPlatformSurvival returns the survival of p just-rejuvenated
// processors with iid inter-failure law dist: S(t)^p.
func FreshPlatformSurvival(dist failure.Survivaler, p int) (Survival, error) {
	if p <= 0 {
		return nil, fmt.Errorf("heuristic: processor count must be positive, got %d", p)
	}
	return func(t float64) float64 {
		return math.Pow(dist.Survival(t), float64(p))
	}, nil
}

// AgedPlatformSurvival returns the survival of processors with given ages
// (time since each one's last failure): Π_i S(age_i + t)/S(age_i). This is
// the quantity that makes non-memoryless scheduling history-dependent —
// the paper's second difficulty for general laws.
func AgedPlatformSurvival(dist failure.Survivaler, ages []float64) (Survival, error) {
	if len(ages) == 0 {
		return nil, fmt.Errorf("heuristic: no processor ages")
	}
	base := make([]float64, len(ages))
	for i, a := range ages {
		if a < 0 {
			return nil, fmt.Errorf("heuristic: negative age %v", a)
		}
		s := dist.Survival(a)
		if s <= 0 {
			return nil, fmt.Errorf("heuristic: processor %d has zero survival at age %v", i, a)
		}
		base[i] = s
	}
	agesCopy := append([]float64(nil), ages...)
	return func(t float64) float64 {
		prod := 1.0
		for i, a := range agesCopy {
			prod *= dist.Survival(a+t) / base[i]
		}
		return prod
	}, nil
}

// Placement is a checkpoint placement with its objective value.
type Placement struct {
	// CheckpointAfter is the checkpoint vector over chain positions.
	CheckpointAfter []bool
	// SavedWork is the expected work saved before the first failure.
	SavedWork float64
}

// MaxSavedWorkDP computes the placement maximizing E[saved] for a chain
// with a constant checkpoint cost, exactly, in O(n³): the DP state is
// (last checkpointed position, number of checkpoints used), which pins the
// wall-clock time prefW + k·C. This is the Exponential-free analogue of
// Algorithm 1 for the maximize-work objective.
func MaxSavedWorkDP(weights []float64, checkpointCost float64, s Survival) (Placement, error) {
	n := len(weights)
	if n == 0 {
		return Placement{}, fmt.Errorf("heuristic: empty chain")
	}
	if checkpointCost < 0 {
		return Placement{}, fmt.Errorf("heuristic: negative checkpoint cost %v", checkpointCost)
	}
	prefW := make([]float64, n+1)
	for i, w := range weights {
		prefW[i+1] = prefW[i] + w
	}
	// best[j][k]: max saved work over prefixes ending with the k-th
	// checkpoint at position j. 1 ≤ k ≤ j+1.
	best := make([][]float64, n)
	from := make([][]int, n)
	for j := 0; j < n; j++ {
		best[j] = make([]float64, n+1)
		from[j] = make([]int, n+1)
		for k := range best[j] {
			best[j][k] = math.Inf(-1)
			from[j][k] = -1
		}
		// k = 1: single checkpoint at j secures prefW(j+1).
		best[j][1] = prefW[j+1] * s(prefW[j+1]+checkpointCost)
	}
	for j := 1; j < n; j++ {
		for k := 2; k <= j+1; k++ {
			tj := prefW[j+1] + float64(k)*checkpointCost
			sj := s(tj)
			for i := k - 2; i < j; i++ {
				if math.IsInf(best[i][k-1], -1) {
					continue
				}
				v := best[i][k-1] + (prefW[j+1]-prefW[i+1])*sj
				if v > best[j][k] {
					best[j][k] = v
					from[j][k] = i
				}
			}
		}
	}
	// Answer: best over k at j = n−1 (final checkpoint mandatory).
	bestK, bestV := 1, best[n-1][1]
	for k := 2; k <= n; k++ {
		if best[n-1][k] > bestV {
			bestK, bestV = k, best[n-1][k]
		}
	}
	ck := make([]bool, n)
	for j, k := n-1, bestK; j >= 0 && k >= 1; {
		ck[j] = true
		prev := from[j][k]
		j, k = prev, k-1
	}
	return Placement{CheckpointAfter: ck, SavedWork: bestV}, nil
}
