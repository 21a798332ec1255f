// Package partition implements the 3-PARTITION problem used as the source
// of the paper's strong NP-completeness reduction (Proposition 2): given
// 3n integers a_1..a_3n summing to n·T with T/4 < a_i < T/2, decide whether
// they can be split into n triples each summing to T.
//
// The package provides instance generation (planted yes-instances and
// perturbed no-instances), an exact backtracking decision procedure for
// the small sizes the reduction experiments need, and a first-fit greedy
// baseline.
package partition

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Instance is a 3-PARTITION instance.
type Instance struct {
	// Items holds the 3n integers.
	Items []int
	// Target is T, the required sum of each triple; Σ Items = n·T.
	Target int
}

// ErrMalformed is returned when an instance violates the 3-PARTITION
// shape constraints.
var ErrMalformed = errors.New("partition: malformed 3-PARTITION instance")

// Groups returns n, the number of triples.
func (in Instance) Groups() int { return len(in.Items) / 3 }

// Validate checks the structural constraints: |Items| = 3n, Σ = n·T and
// T/4 < a_i < T/2 for all i (strict, as in Garey & Johnson).
func (in Instance) Validate() error {
	if len(in.Items) == 0 || len(in.Items)%3 != 0 {
		return fmt.Errorf("%w: item count %d is not a positive multiple of 3", ErrMalformed, len(in.Items))
	}
	if in.Target <= 0 {
		return fmt.Errorf("%w: target %d is not positive", ErrMalformed, in.Target)
	}
	sum := 0
	for _, a := range in.Items {
		if 4*a <= in.Target || 2*a >= in.Target {
			return fmt.Errorf("%w: item %d outside (T/4, T/2) for T=%d", ErrMalformed, a, in.Target)
		}
		sum += a
	}
	if sum != in.Groups()*in.Target {
		return fmt.Errorf("%w: items sum to %d, want n·T = %d", ErrMalformed, sum, in.Groups()*in.Target)
	}
	return nil
}

// Solution is a partition of item indices into triples.
type Solution [][]int

// Check verifies that sol is a valid solution of in.
func (in Instance) Check(sol Solution) error {
	if len(sol) != in.Groups() {
		return fmt.Errorf("partition: %d groups, want %d", len(sol), in.Groups())
	}
	seen := make([]bool, len(in.Items))
	for gi, group := range sol {
		if len(group) != 3 {
			return fmt.Errorf("partition: group %d has %d items, want 3", gi, len(group))
		}
		sum := 0
		for _, idx := range group {
			if idx < 0 || idx >= len(in.Items) {
				return fmt.Errorf("partition: group %d references item %d out of range", gi, idx)
			}
			if seen[idx] {
				return fmt.Errorf("partition: item %d used twice", idx)
			}
			seen[idx] = true
			sum += in.Items[idx]
		}
		if sum != in.Target {
			return fmt.Errorf("partition: group %d sums to %d, want %d", gi, sum, in.Target)
		}
	}
	return nil
}

// Solve decides the instance exactly by backtracking over triples, fixing
// the largest unused item of each new triple to break symmetry. It returns
// a witness when the answer is yes. Intended for the reduction experiments
// (n ≤ 8 or so); 3-PARTITION is strongly NP-complete so no polynomial
// algorithm is expected.
func Solve(in Instance) (Solution, bool, error) {
	if err := in.Validate(); err != nil {
		return nil, false, err
	}
	n3 := len(in.Items)
	// Sort indices by decreasing value: big items constrain most.
	idx := make([]int, n3)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return in.Items[idx[a]] > in.Items[idx[b]] })

	used := make([]bool, n3)
	var groups Solution
	var rec func(remaining int) bool
	rec = func(remaining int) bool {
		if remaining == 0 {
			return true
		}
		// Anchor: first unused (largest remaining) item.
		anchor := -1
		for _, i := range idx {
			if !used[i] {
				anchor = i
				break
			}
		}
		used[anchor] = true
		need := in.Target - in.Items[anchor]
		// Choose two partners among smaller unused items.
		for ai := 0; ai < n3; ai++ {
			a := idx[ai]
			if used[a] || in.Items[a] > need {
				continue
			}
			used[a] = true
			rest := need - in.Items[a]
			for bi := ai + 1; bi < n3; bi++ {
				b := idx[bi]
				if used[b] || in.Items[b] != rest {
					continue
				}
				used[b] = true
				groups = append(groups, []int{anchor, a, b})
				if rec(remaining - 1) {
					return true
				}
				groups = groups[:len(groups)-1]
				used[b] = false
				// Only the first partner with the exact value matters:
				// equal values are interchangeable.
				break
			}
			used[a] = false
		}
		used[anchor] = false
		return false
	}
	if rec(in.Groups()) {
		out := make(Solution, len(groups))
		for i, gp := range groups {
			cp := make([]int, len(gp))
			copy(cp, gp)
			out[i] = cp
		}
		return out, true, nil
	}
	return nil, false, nil
}

// GenerateYes plants a satisfiable instance with n triples and target
// around target (must allow T/4 < a < T/2). Each triple is built as
// (T/3 − d, T/3, T/3 + d) with a random jitter d keeping the shape
// constraints.
func GenerateYes(n, target int, r *rng.Stream) (Instance, error) {
	if n <= 0 {
		return Instance{}, fmt.Errorf("partition: group count must be positive, got %d", n)
	}
	if target%3 != 0 {
		target += 3 - target%3
	}
	third := target / 3
	// Jitter must keep items strictly inside (T/4, T/2):
	// third − d > T/4 ⇒ d < T/12; third + d < T/2 ⇒ d < T/6.
	maxJitter := target/12 - 1
	if maxJitter < 0 {
		return Instance{}, fmt.Errorf("partition: target %d too small to jitter", target)
	}
	items := make([]int, 0, 3*n)
	for g := 0; g < n; g++ {
		d := 0
		if maxJitter > 0 {
			d = r.IntN(maxJitter + 1)
		}
		items = append(items, third-d, third, third+d)
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	in := Instance{Items: items, Target: target}
	if err := in.Validate(); err != nil {
		return Instance{}, err
	}
	return in, nil
}

// GenerateNo produces an unsatisfiable instance by taking a planted
// yes-instance and shifting one unit of weight between two items of
// different triples so that sums remain n·T but no perfect triple
// partition exists. It verifies unsatisfiability with the exact solver
// (callers should keep n small) and retries until a genuine no-instance
// appears.
func GenerateNo(n, target int, r *rng.Stream) (Instance, error) {
	if n < 2 {
		return Instance{}, fmt.Errorf("partition: no-instances need at least 2 groups, got %d", n)
	}
	for attempt := 0; attempt < 100; attempt++ {
		in, err := GenerateYes(n, target, r)
		if err != nil {
			return Instance{}, err
		}
		// Perturb: move one unit from a random item to another, keeping
		// shape constraints.
		i := r.IntN(len(in.Items))
		j := r.IntN(len(in.Items))
		if i == j {
			continue
		}
		in.Items[i]--
		in.Items[j]++
		if in.Validate() != nil {
			continue
		}
		if _, ok, err := Solve(in); err == nil && !ok {
			return in, nil
		}
	}
	return Instance{}, errors.New("partition: could not generate a no-instance (target too forgiving)")
}
