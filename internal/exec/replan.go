package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
)

// Replanner re-solves the remaining suffix of a plan when the observed
// effective checkpoint cost drifts from the planned one. Replan must be
// a PURE function of (from, overhead): the executor records each replan
// in the journal as an EvReplan{from, overhead} event and a resumed run
// reconstructs the spliced plan by replaying those events, so a
// replanner that consulted anything else would break replay identity.
//
// The returned segments cover positions [from, n−1] of the original
// execution order with ABSOLUTE positions and the plan's TRUE
// checkpoint/recovery costs — overhead inflates the costs only inside
// the optimization, because the executor keeps paying the planned C in
// the model and observes store overhead separately.
type Replanner interface {
	// Name identifies the replanner in summaries.
	Name() string
	// Replan re-solves positions [from, n−1] under a per-checkpoint
	// store overhead estimate.
	Replan(from int, overhead float64) ([]core.Segment, error)
}

// ChainReplanner re-solves chain suffixes through the chain-DP solver
// portfolio (SolveChainDP — kernel and monotone arms included, exactly
// the solvers the initial plan came from).
type ChainReplanner struct {
	// CP is the full original chain problem.
	CP *core.ChainProblem
}

// Name identifies the replanner.
func (r ChainReplanner) Name() string { return "chain-dp" }

// Replan solves the suffix chain problem with Ckpt inflated by overhead
// for the decision, then rebuilds the chosen segments with the true
// costs.
func (r ChainReplanner) Replan(from int, overhead float64) ([]core.Segment, error) {
	n := r.CP.Len()
	if from < 0 || from >= n {
		return nil, fmt.Errorf("exec: replan frontier %d out of range [0, %d)", from, n)
	}
	if overhead < 0 {
		return nil, fmt.Errorf("exec: negative replan overhead %v", overhead)
	}
	initRec := r.CP.InitialRecovery
	if from > 0 {
		initRec = r.CP.Rec[from-1]
	}
	inflated := make([]float64, n-from)
	for i := range inflated {
		inflated[i] = r.CP.Ckpt[from+i] + overhead
	}
	decide := &core.ChainProblem{
		Weights:         r.CP.Weights[from:],
		Ckpt:            inflated,
		Rec:             r.CP.Rec[from:],
		InitialRecovery: initRec,
		Model:           r.CP.Model,
	}
	res, err := core.SolveChainDP(decide)
	if err != nil {
		return nil, fmt.Errorf("exec: replanning chain suffix [%d:]: %w", from, err)
	}
	exact := &core.ChainProblem{
		Weights:         r.CP.Weights[from:],
		Ckpt:            r.CP.Ckpt[from:],
		Rec:             r.CP.Rec[from:],
		InitialRecovery: initRec,
		Model:           r.CP.Model,
	}
	segs, err := exact.Segments(res.CheckpointAfter)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		segs[i].Start += from
		segs[i].End += from
	}
	return segs, nil
}

// OrderReplanner re-solves DAG-plan suffixes along the FIXED original
// linearization: the order is never re-linearized (executed prefixes
// pin it), only the checkpoint placement over the remaining positions
// is re-decided, by core.SolveOrderSuffix under the plan's cost model.
type OrderReplanner struct {
	// G and Order are the graph and the plan's linearization.
	G     *dag.Graph
	Order []int
	// M carries λ and D; CM is the cost model the plan was solved under.
	M  expectation.Model
	CM core.CostModel
}

// Name identifies the replanner.
func (r OrderReplanner) Name() string { return "order-dp/" + r.CM.Name() }

// Replan re-decides checkpoints over positions [from, n−1].
func (r OrderReplanner) Replan(from int, overhead float64) ([]core.Segment, error) {
	segs, err := core.SolveOrderSuffix(r.G, r.Order, r.M, r.CM, from, overhead)
	if err != nil {
		return nil, fmt.Errorf("exec: replanning order suffix [%d:]: %w", from, err)
	}
	return segs, nil
}

var (
	_ Replanner = ChainReplanner{}
	_ Replanner = OrderReplanner{}
)
