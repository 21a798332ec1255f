package core

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/partition"
	"repro/internal/rng"
)

func randomIndependent(t *testing.T, n int, seed uint64, lambda float64) *IndependentProblem {
	t.Helper()
	r := rng.New(seed)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = r.Range(1, 10)
	}
	return &IndependentProblem{
		Weights:    weights,
		Checkpoint: 0.4,
		Recovery:   0.4,
		Model:      mustModelT(t, lambda, 0),
	}
}

func TestIndependentValidation(t *testing.T) {
	m := mustModelT(t, 0.1, 0)
	bad := []*IndependentProblem{
		{Weights: nil, Model: m},
		{Weights: []float64{-1}, Model: m},
		{Weights: []float64{1}, Checkpoint: -1, Model: m},
		{Weights: []float64{1}, Recovery: -1, Model: m},
	}
	for i, ip := range bad {
		if err := ip.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestEvaluateChecksPartition(t *testing.T) {
	ip := randomIndependent(t, 4, 1, 0.05)
	if _, err := ip.Evaluate([][]int{{0, 1}, {2}}); err == nil {
		t.Error("missing task should fail")
	}
	if _, err := ip.Evaluate([][]int{{0, 1}, {1, 2, 3}}); err == nil {
		t.Error("duplicated task should fail")
	}
	if _, err := ip.Evaluate([][]int{{0, 1, 2, 3}, {}}); err == nil {
		t.Error("empty group should fail")
	}
	if _, err := ip.Evaluate([][]int{{0, 1, 2, 9}}); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestExactSolverSmallCases(t *testing.T) {
	// Two identical tasks, checkpoint cheap relative to failure risk:
	// grouping decision must match direct enumeration.
	ip := &IndependentProblem{
		Weights:    []float64{5, 5},
		Checkpoint: 0.1,
		Recovery:   0.1,
		Model:      mustModelT(t, 0.3, 0),
	}
	got, err := SolveIndependentExact(ip)
	if err != nil {
		t.Fatal(err)
	}
	together, _ := ip.Evaluate([][]int{{0, 1}})
	apart, _ := ip.Evaluate([][]int{{0}, {1}})
	want := math.Min(together, apart)
	if !numeric.AlmostEqual(got.Expected, want, 1e-12) {
		t.Errorf("exact = %v, enumeration = %v", got.Expected, want)
	}
}

func TestExactSolverMatchesExhaustivePartitions(t *testing.T) {
	// Cross-check the subset DP against explicit enumeration of all set
	// partitions (Bell number) for n = 5.
	ip := randomIndependent(t, 5, 2, 0.15)
	exact, err := SolveIndependentExact(ip)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	var rec func(groups [][]int, next int)
	rec = func(groups [][]int, next int) {
		if next == len(ip.Weights) {
			if e, err := ip.Evaluate(groups); err == nil && e < best {
				best = e
			}
			return
		}
		for i := range groups {
			groups[i] = append(groups[i], next)
			rec(groups, next+1)
			groups[i] = groups[i][:len(groups[i])-1]
		}
		rec(append(groups, []int{next}), next+1)
	}
	rec(nil, 0)
	if !numeric.AlmostEqual(exact.Expected, best, 1e-9) {
		t.Errorf("subset DP %v ≠ partition enumeration %v", exact.Expected, best)
	}
}

func TestExactSolverCap(t *testing.T) {
	ip := randomIndependent(t, MaxExactIndependent+1, 3, 0.01)
	if _, err := SolveIndependentExact(ip); err == nil {
		t.Error("oversized exact solve should fail")
	}
}

func TestHeuristicsAreValidAndOrdered(t *testing.T) {
	for seed := uint64(5); seed < 11; seed++ {
		ip := randomIndependent(t, 12, seed, 0.08)
		exact, err := SolveIndependentExact(ip)
		if err != nil {
			t.Fatal(err)
		}
		lpt, err := SolveIndependentLPT(ip)
		if err != nil {
			t.Fatal(err)
		}
		chunk, err := SolveIndependentChunk(ip)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1e-9
		if lpt.Expected < exact.Expected-eps || chunk.Expected < exact.Expected-eps {
			t.Errorf("seed %d: heuristic beats exact (%v, %v vs %v)", seed, lpt.Expected, chunk.Expected, exact.Expected)
		}
		// Evaluations must match the claimed expectations.
		for _, g := range []Grouping{lpt, chunk, exact} {
			e, err := ip.Evaluate(g.Groups)
			if err != nil {
				t.Fatalf("seed %d: invalid grouping: %v", seed, err)
			}
			if !numeric.AlmostEqual(e, g.Expected, 1e-9) {
				t.Errorf("seed %d: grouping claims %v, evaluates to %v", seed, g.Expected, e)
			}
		}
		// LPT-over-all-m dominates single-m baselines by construction.
		per, _ := ip.SingleGroupPerTask()
		one, _ := ip.OneGroup()
		if lpt.Expected > per.Expected+eps || lpt.Expected > one.Expected+eps {
			t.Errorf("seed %d: LPT scan worse than trivial baselines", seed)
		}
	}
}

func TestLPTGroupingValidation(t *testing.T) {
	ip := randomIndependent(t, 5, 12, 0.05)
	if _, err := ip.LPTGrouping(0); err == nil {
		t.Error("m = 0 should fail")
	}
	if _, err := ip.LPTGrouping(6); err == nil {
		t.Error("m > n should fail")
	}
}

func TestGroupingPlanRoundTrip(t *testing.T) {
	ip := randomIndependent(t, 6, 13, 0.1)
	g, err := SolveIndependentLPT(ip)
	if err != nil {
		t.Fatal(err)
	}
	plan := g.Plan()
	if err := plan.Validate(nil); err != nil {
		t.Fatalf("grouping plan invalid: %v", err)
	}
	if plan.NumCheckpoints() != len(g.Groups) {
		t.Errorf("plan has %d checkpoints for %d groups", plan.NumCheckpoints(), len(g.Groups))
	}
	if len(plan.Order) != len(ip.Weights) {
		t.Errorf("plan covers %d tasks", len(plan.Order))
	}
}

func TestReductionForwardDirection(t *testing.T) {
	// A 3-PARTITION witness must produce a schedule meeting the bound K
	// exactly (the forward direction of the Proposition 2 proof).
	r := rng.New(21)
	in, err := partition.GenerateYes(4, 240, r)
	if err != nil {
		t.Fatal(err)
	}
	sol, ok, err := partition.Solve(in)
	if err != nil || !ok {
		t.Fatalf("planted instance unsolvable: %v", err)
	}
	ri, err := BuildReduction(in)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(ri.RiggedExponent(), 2, 1e-12) {
		t.Errorf("e^{λ(T+C)} = %v, want 2", ri.RiggedExponent())
	}
	g, err := ri.GroupingFromPartition(sol)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(g.Expected, ri.Bound, 1e-9) {
		t.Errorf("witness schedule E = %v, K = %v", g.Expected, ri.Bound)
	}
}

func TestReductionBackwardDirection(t *testing.T) {
	// Yes-instances decide yes, no-instances decide no, through exact
	// scheduling (the backward direction).
	r := rng.New(22)
	yes, err := partition.GenerateYes(4, 240, r)
	if err != nil {
		t.Fatal(err)
	}
	riYes, err := BuildReduction(yes)
	if err != nil {
		t.Fatal(err)
	}
	decision, g, err := riYes.DecideByScheduling()
	if err != nil {
		t.Fatal(err)
	}
	if !decision {
		t.Errorf("yes-instance decided no (E* = %v, K = %v)", g.Expected, riYes.Bound)
	}
	if math.Abs(riYes.GapToBound(g)) > 1e-9 {
		t.Errorf("yes-instance optimal gap = %v, want 0", riYes.GapToBound(g))
	}

	no, err := partition.GenerateNo(3, 120, r)
	if err != nil {
		t.Fatal(err)
	}
	riNo, err := BuildReduction(no)
	if err != nil {
		t.Fatal(err)
	}
	decision, g, err = riNo.DecideByScheduling()
	if err != nil {
		t.Fatal(err)
	}
	if decision {
		t.Errorf("no-instance decided yes (E* = %v, K = %v)", g.Expected, riNo.Bound)
	}
	if riNo.GapToBound(g) <= 0 {
		t.Errorf("no-instance gap = %v, want > 0", riNo.GapToBound(g))
	}
}

func TestReductionOptimalUsesTriples(t *testing.T) {
	// On a yes-instance the optimal schedule must use exactly n groups
	// (the uniqueness argument in the proof: minimum at m = n).
	r := rng.New(23)
	in, err := partition.GenerateYes(3, 120, r)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := BuildReduction(in)
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := ri.DecideByScheduling()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Groups) != in.Groups() {
		t.Errorf("optimal uses %d groups, want %d", len(g.Groups), in.Groups())
	}
	for _, group := range g.Groups {
		var s float64
		for _, i := range group {
			s += ri.Problem.Weights[i]
		}
		if !numeric.AlmostEqual(s, float64(in.Target), 1e-9) {
			t.Errorf("optimal group sums to %v, want %d", s, in.Target)
		}
	}
}

func TestBuildReductionRejectsMalformed(t *testing.T) {
	if _, err := BuildReduction(partition.Instance{Items: []int{1, 2}, Target: 3}); err == nil {
		t.Error("malformed instance should be rejected")
	}
}

func TestReductionString(t *testing.T) {
	r := rng.New(24)
	in, _ := partition.GenerateYes(2, 120, r)
	ri, _ := BuildReduction(in)
	if ri.String() == "" {
		t.Error("empty String()")
	}
}

// RiggedExponent returns e^{λ(T+C)}, which the reduction fixes at exactly
// 2.
func (ri *ReducedInstance) RiggedExponent() float64 {
	t := float64(ri.Source.Target)
	return math.Exp(ri.Problem.Model.Lambda * (t + ri.Problem.Checkpoint))
}
