// Package core implements the paper's primary contribution: the
// checkpoint-scheduling problem for computational workflows under
// Exponential failures. It contains
//
//   - the plan/segment model and the exact expected-makespan evaluator
//     built on Proposition 1 (plan.go);
//   - Algorithm 1, the O(n²) dynamic program for linear chains of
//     Proposition 3, in both the paper's memoized-recursion form and an
//     iterative form, with plan reconstruction (chaindp.go);
//   - exact and heuristic solvers for the independent-task instance class
//     of Proposition 2 (independent.go);
//   - the 3-PARTITION reduction of Proposition 2, buildable and checkable
//     numerically (reduction.go);
//   - linearization + checkpoint-placement scheduling for general DAGs,
//     including the content-dependent checkpoint-cost extension of
//     Section 6 (dagsched.go).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/expectation"
)

// Plan is a complete schedule: an execution order for the tasks (a
// linearization of the DAG, per the full-parallelism assumption) plus the
// decision, after each position, of whether to checkpoint.
//
// Following Algorithm 1, the final position always carries a checkpoint;
// callers who do not want to pay a terminal checkpoint give the final task
// a zero checkpoint cost.
type Plan struct {
	// Order lists task IDs in execution order.
	Order []int
	// CheckpointAfter[i] reports whether a checkpoint is taken after the
	// task at position i of Order.
	CheckpointAfter []bool
}

// ErrBadPlan is wrapped by every plan-validation failure.
var ErrBadPlan = errors.New("core: invalid plan")

// NewPlan builds a plan with checkpoints at exactly the given positions
// (the final position is added automatically).
func NewPlan(order []int, checkpointPositions ...int) (Plan, error) {
	p := Plan{Order: append([]int(nil), order...), CheckpointAfter: make([]bool, len(order))}
	if len(order) == 0 {
		return Plan{}, fmt.Errorf("%w: empty order", ErrBadPlan)
	}
	for _, pos := range checkpointPositions {
		if pos < 0 || pos >= len(order) {
			return Plan{}, fmt.Errorf("%w: checkpoint position %d out of range [0, %d)", ErrBadPlan, pos, len(order))
		}
		p.CheckpointAfter[pos] = true
	}
	p.CheckpointAfter[len(order)-1] = true
	return p, nil
}

// Checkpoints returns the positions (indices into Order) after which a
// checkpoint is taken, in increasing order.
func (p Plan) Checkpoints() []int {
	return checkpointPositions(p.CheckpointAfter)
}

// checkpointPositions converts a checkpoint vector to its positions, in
// increasing order, with a single exactly-sized allocation. It is the
// shared implementation behind Plan.Checkpoints and
// ChainResult.Positions.
func checkpointPositions(checkpointAfter []bool) []int {
	n := 0
	for _, ck := range checkpointAfter {
		if ck {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i, ck := range checkpointAfter {
		if ck {
			out = append(out, i)
		}
	}
	return out
}

// NumCheckpoints returns the number of checkpoints in the plan.
func (p Plan) NumCheckpoints() int {
	n := 0
	for _, ck := range p.CheckpointAfter {
		if ck {
			n++
		}
	}
	return n
}

// Validate checks internal consistency and, when g is non-nil, that Order
// is a permutation of g's tasks respecting every dependence.
func (p Plan) Validate(g *dag.Graph) error {
	if len(p.Order) == 0 {
		return fmt.Errorf("%w: empty order", ErrBadPlan)
	}
	if len(p.CheckpointAfter) != len(p.Order) {
		return fmt.Errorf("%w: order has %d positions but checkpoint vector has %d", ErrBadPlan, len(p.Order), len(p.CheckpointAfter))
	}
	if !p.CheckpointAfter[len(p.Order)-1] {
		return fmt.Errorf("%w: final position must carry a checkpoint (give the last task C=0 to make it free)", ErrBadPlan)
	}
	if g == nil {
		return nil
	}
	if len(p.Order) != g.Len() {
		return fmt.Errorf("%w: order has %d tasks, graph has %d", ErrBadPlan, len(p.Order), g.Len())
	}
	pos := make([]int, g.Len()) // pos[id] = id's position, −1 until seen
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range p.Order {
		if id < 0 || id >= g.Len() {
			return fmt.Errorf("%w: task id %d out of range", ErrBadPlan, id)
		}
		if pos[id] >= 0 {
			return fmt.Errorf("%w: task %d appears twice", ErrBadPlan, id)
		}
		pos[id] = i
	}
	for id := 0; id < g.Len(); id++ {
		for _, s := range g.Successors(id) {
			if pos[s] < pos[id] {
				return fmt.Errorf("%w: dependence %d → %d violated (positions %d, %d)", ErrBadPlan, id, s, pos[id], pos[s])
			}
		}
	}
	return nil
}

// Segment is a maximal run of consecutive positions ended by a checkpoint.
type Segment struct {
	// Start and End are inclusive position indices into the plan order.
	Start, End int
	// Work is the summed weight of the segment's tasks.
	Work float64
	// Checkpoint is the cost of the checkpoint closing the segment.
	Checkpoint float64
	// Recovery is the cost of re-reaching the segment's starting state
	// after a failure within the segment.
	Recovery float64
}

// ChainProblem is the positional form every solver works on: after the DAG
// has been linearized (or when it is a chain to begin with), position i
// carries a weight, the cost of checkpointing right after it, and the cost
// of recovering from that checkpoint.
type ChainProblem struct {
	// Weights[i] is the work at position i.
	Weights []float64
	// Ckpt[i] is C at position i: the cost of a checkpoint taken after i.
	Ckpt []float64
	// Rec[i] is R at position i: the recovery cost when the most recent
	// checkpoint was taken after position i.
	Rec []float64
	// InitialRecovery is R₀: the cost of restarting from the initial
	// state when a failure strikes before the first checkpoint. The paper
	// leaves it implicit (R_{x−1} with x = 1); 0 models free re-entry.
	InitialRecovery float64
	// Model carries λ and D.
	Model expectation.Model
}

// NewChainProblem builds the positional problem for a graph that is a
// linear chain, in chain order.
func NewChainProblem(g *dag.Graph, m expectation.Model, initialRecovery float64) (*ChainProblem, []int, error) {
	order, ok := g.IsLinearChain()
	if !ok {
		return nil, nil, errors.New("core: graph is not a linear chain")
	}
	cp, err := NewChainProblemOrdered(g, order, m, initialRecovery)
	return cp, order, err
}

// NewChainProblemOrdered builds the positional problem for an explicit
// linearization of g, using the paper's base cost model: the checkpoint
// after position i costs C of the task at that position, and recovery from
// it costs that task's R.
func NewChainProblemOrdered(g *dag.Graph, order []int, m expectation.Model, initialRecovery float64) (*ChainProblem, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if initialRecovery < 0 {
		return nil, fmt.Errorf("core: negative initial recovery %v", initialRecovery)
	}
	n := len(order)
	cp := &ChainProblem{
		Weights:         make([]float64, n),
		Ckpt:            make([]float64, n),
		Rec:             make([]float64, n),
		InitialRecovery: initialRecovery,
		Model:           m,
	}
	for i, id := range order {
		cp.Weights[i] = g.Weight(id)
		cp.Ckpt[i] = g.Checkpoint(id)
		cp.Rec[i] = g.Recovery(id)
	}
	return cp, nil
}

// Len returns the number of positions.
func (cp *ChainProblem) Len() int { return len(cp.Weights) }

// Validate checks the positional arrays.
func (cp *ChainProblem) Validate() error {
	n := len(cp.Weights)
	if n == 0 {
		return errors.New("core: empty chain problem")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("core: chain of %d positions exceeds the solvers' %d", n, math.MaxInt32)
	}
	if len(cp.Ckpt) != n || len(cp.Rec) != n {
		return fmt.Errorf("core: inconsistent array lengths (%d, %d, %d)", n, len(cp.Ckpt), len(cp.Rec))
	}
	for i := 0; i < n; i++ {
		if cp.Weights[i] < 0 || cp.Ckpt[i] < 0 || cp.Rec[i] < 0 {
			return fmt.Errorf("core: negative parameter at position %d", i)
		}
	}
	if cp.InitialRecovery < 0 {
		return errors.New("core: negative initial recovery")
	}
	return cp.Model.Validate()
}

// recoveryBefore returns the recovery cost of the checkpoint preceding
// position x: R₀ for x = 0, otherwise Rec[x−1].
func (cp *ChainProblem) recoveryBefore(x int) float64 {
	if x == 0 {
		return cp.InitialRecovery
	}
	return cp.Rec[x-1]
}

// Segments splits the positions according to the checkpoint vector.
func (cp *ChainProblem) Segments(checkpointAfter []bool) ([]Segment, error) {
	n := cp.Len()
	if len(checkpointAfter) != n {
		return nil, fmt.Errorf("%w: checkpoint vector length %d, want %d", ErrBadPlan, len(checkpointAfter), n)
	}
	if !checkpointAfter[n-1] {
		return nil, fmt.Errorf("%w: final position must carry a checkpoint", ErrBadPlan)
	}
	count := 0
	for _, c := range checkpointAfter {
		if c {
			count++
		}
	}
	segs := make([]Segment, 0, count)
	start := 0
	for i := 0; i < n; i++ {
		if !checkpointAfter[i] {
			continue
		}
		seg := Segment{Start: start, End: i, Checkpoint: cp.Ckpt[i], Recovery: cp.recoveryBefore(start)}
		for j := start; j <= i; j++ {
			seg.Work += cp.Weights[j]
		}
		segs = append(segs, seg)
		start = i + 1
	}
	return segs, nil
}

// Makespan returns the exact expected makespan of the checkpoint vector:
// the sum of Proposition 1 over segments (the checkpointed state after
// each segment is a renewal point, so segment expectations add).
func (cp *ChainProblem) Makespan(checkpointAfter []bool) (float64, error) {
	segs, err := cp.Segments(checkpointAfter)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, s := range segs {
		total += cp.Model.ExpectedTime(s.Work, s.Checkpoint, s.Recovery)
	}
	return total, nil
}

// MakespanVariance returns the exact variance of the plan's makespan:
// checkpointed states are renewal points of the memoryless failure
// process, so segment durations are independent and variances add.
func (cp *ChainProblem) MakespanVariance(checkpointAfter []bool) (float64, error) {
	segs, err := cp.Segments(checkpointAfter)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, s := range segs {
		total += cp.Model.Variance(s.Work, s.Checkpoint, s.Recovery)
	}
	return total, nil
}

// FailureFreeMakespan returns the makespan of the checkpoint vector when
// no failure occurs: Σ w_i + Σ_{checkpointed i} C_i.
func (cp *ChainProblem) FailureFreeMakespan(checkpointAfter []bool) (float64, error) {
	if len(checkpointAfter) != cp.Len() {
		return 0, fmt.Errorf("%w: checkpoint vector length %d, want %d", ErrBadPlan, len(checkpointAfter), cp.Len())
	}
	var total float64
	for i, w := range cp.Weights {
		total += w
		if checkpointAfter[i] {
			total += cp.Ckpt[i]
		}
	}
	return total, nil
}

// EvaluatePlan returns the exact expected makespan of plan on graph g
// under model m, using the paper's base cost model (checkpoint/recovery
// cost of a segment boundary = the boundary task's C_i/R_i).
func EvaluatePlan(m expectation.Model, g *dag.Graph, plan Plan, initialRecovery float64) (float64, error) {
	if err := plan.Validate(g); err != nil {
		return 0, err
	}
	cp, err := NewChainProblemOrdered(g, plan.Order, m, initialRecovery)
	if err != nil {
		return 0, err
	}
	return cp.Makespan(plan.CheckpointAfter)
}

// infinity is a shared +Inf for solver initializations.
var infinity = math.Inf(1)
