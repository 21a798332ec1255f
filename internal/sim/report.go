package sim

import (
	"math"

	"repro/internal/core"
)

// PlanReport is a one-stop analytical + simulated assessment of a chain
// plan: the output of cmd/chkptplan's report mode and the facade's
// recommended entry point for plan evaluation.
type PlanReport struct {
	// Expected is the exact expected makespan (Proposition 1 per segment).
	Expected float64
	// StdDev is the exact makespan standard deviation (second-moment
	// extension of the Proposition 1 recursion).
	StdDev float64
	// FailureFree is the makespan with no failure.
	FailureFree float64
	// ExpectedWaste is Expected/FailureFree − 1.
	ExpectedWaste float64
	// Checkpoints is the number of checkpoints in the plan.
	Checkpoints int
	// Segments lists the plan's segments.
	Segments []core.Segment
}

// Report assembles the analytical PlanReport for a checkpoint vector.
func Report(cp *core.ChainProblem, checkpointAfter []bool) (PlanReport, error) {
	segs, err := cp.Segments(checkpointAfter)
	if err != nil {
		return PlanReport{}, err
	}
	e, err := cp.Makespan(checkpointAfter)
	if err != nil {
		return PlanReport{}, err
	}
	v, err := cp.MakespanVariance(checkpointAfter)
	if err != nil {
		return PlanReport{}, err
	}
	ff, err := cp.FailureFreeMakespan(checkpointAfter)
	if err != nil {
		return PlanReport{}, err
	}
	rep := PlanReport{
		Expected:    e,
		FailureFree: ff,
		Checkpoints: len(segs),
		Segments:    segs,
	}
	if v > 0 {
		rep.StdDev = math.Sqrt(v)
	}
	if ff > 0 {
		rep.ExpectedWaste = e/ff - 1
	}
	return rep, nil
}
