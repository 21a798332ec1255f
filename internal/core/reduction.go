package core

import (
	"fmt"
	"math"

	"repro/internal/expectation"
	"repro/internal/partition"
)

// ReducedInstance is the scheduling instance produced from a 3-PARTITION
// instance by the reduction of Proposition 2:
//
//	λ = 1/(2T),  C = R = (ln 2 − 1/2)/λ,  D = 0,
//	K = n · e^{λC}/λ · (e^{λ(T+C)} − 1).
//
// These parameters are rigged so that e^{λ(T+C)} = 2 exactly, making the
// per-group cost function g(m) minimized at m = n with equal group sums T:
// the scheduling instance has expected makespan ≤ K iff the 3-PARTITION
// instance is a yes-instance.
type ReducedInstance struct {
	// Source is the originating 3-PARTITION instance.
	Source partition.Instance
	// Problem is the resulting independent-task scheduling instance.
	Problem IndependentProblem
	// Bound is the decision threshold K.
	Bound float64
}

// BuildReduction constructs the Proposition 2 reduction.
func BuildReduction(in partition.Instance) (*ReducedInstance, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	t := float64(in.Target)
	lambda := 1 / (2 * t)
	c := (math.Ln2 - 0.5) / lambda
	model, err := expectation.NewModel(lambda, 0)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(in.Items))
	for i, a := range in.Items {
		weights[i] = float64(a)
	}
	n := float64(in.Groups())
	k := n * math.Exp(lambda*c) / lambda * math.Expm1(lambda*(t+c))
	return &ReducedInstance{
		Source: in,
		Problem: IndependentProblem{
			Weights:    weights,
			Checkpoint: c,
			Recovery:   c,
			Model:      model,
		},
		Bound: k,
	}, nil
}

// GroupingFromPartition converts a 3-PARTITION witness into the schedule
// of the forward direction of the proof: each triple becomes one
// checkpoint group. Its expectation equals the bound K.
func (ri *ReducedInstance) GroupingFromPartition(sol partition.Solution) (Grouping, error) {
	if err := ri.Source.Check(sol); err != nil {
		return Grouping{}, err
	}
	groups := make([][]int, len(sol))
	for i, g := range sol {
		groups[i] = append([]int(nil), g...)
	}
	e, err := ri.Problem.Evaluate(groups)
	if err != nil {
		return Grouping{}, err
	}
	return Grouping{Groups: groups, Expected: e}, nil
}

// DecideByScheduling answers the 3-PARTITION question by solving the
// reduced scheduling instance exactly and comparing to K: the backward
// direction of the proof. Only valid for instances small enough for the
// exact solver.
func (ri *ReducedInstance) DecideByScheduling() (bool, Grouping, error) {
	g, err := SolveIndependentExact(&ri.Problem)
	if err != nil {
		return false, Grouping{}, err
	}
	// The proof shows E* = K exactly on yes-instances and E* > K on
	// no-instances; the tolerance absorbs floating-point rounding.
	const relTol = 1e-9
	return g.Expected <= ri.Bound*(1+relTol), g, nil
}

// GapToBound returns (E* − K)/K for a grouping, the normalized distance to
// the decision threshold (0 on optimal schedules of yes-instances,
// strictly positive on no-instances).
func (ri *ReducedInstance) GapToBound(g Grouping) float64 {
	return (g.Expected - ri.Bound) / ri.Bound
}

// ReductionSizes reports the reduced instance's parameters for experiment
// tables.
func (ri *ReducedInstance) String() string {
	return fmt.Sprintf("3-PARTITION(n=%d, T=%d) → schedule(λ=%.6g, C=R=%.6g, K=%.6g)",
		ri.Source.Groups(), ri.Source.Target, ri.Problem.Model.Lambda, ri.Problem.Checkpoint, ri.Bound)
}
