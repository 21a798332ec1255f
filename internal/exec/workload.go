package exec

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
)

// Workload is an executable plan in positional form: the execution
// order, the per-position weights, and the segment boundaries with
// their checkpoint and recovery costs already resolved through whatever
// cost model produced them. It is the common currency of the executor —
// chain plans and DAG plans both compile down to it, so the execution
// loop, the checkpoint format and the crash harness are written once.
type Workload struct {
	// Order lists task IDs in execution order (identity for chains).
	Order []int
	// CheckpointAfter[i] reports a checkpoint after position i.
	CheckpointAfter []bool
	// Weights[i] is the work of the task at position i.
	Weights []float64

	// segs are the segments in position order, costs resolved.
	segs []core.Segment

	fp uint64
}

// NewChainWorkload compiles a positional chain problem and checkpoint
// vector into a workload. Segment costs come from cp itself (Ckpt at
// the segment end, Rec of the preceding checkpoint), so
// Planned(cp.Model) reproduces cp.Makespan(checkpointAfter) exactly.
func NewChainWorkload(cp *core.ChainProblem, checkpointAfter []bool) (*Workload, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	segs, err := cp.Segments(checkpointAfter)
	if err != nil {
		return nil, err
	}
	n := cp.Len()
	w := &Workload{
		Order:           make([]int, n),
		CheckpointAfter: append([]bool(nil), checkpointAfter...),
		Weights:         append([]float64(nil), cp.Weights...),
	}
	for i := range w.Order {
		w.Order[i] = i
	}
	w.segs = segs
	w.fp = w.fingerprint()
	return w, nil
}

// NewDAGWorkload compiles a DAG plan into a workload under the given
// cost model: core.PlanSegments resolves every segment's checkpoint and
// recovery cost in one pass, the costs the DAG schedulers optimize, so
// Planned agrees with the solver's Expected for the same plan up to
// rounding (see Planned).
func NewDAGWorkload(g *dag.Graph, plan core.Plan, cm core.CostModel) (*Workload, error) {
	if err := plan.Validate(g); err != nil {
		return nil, err
	}
	segs, err := core.PlanSegments(g, plan.Order, plan.CheckpointAfter, cm, 0)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Order:           append([]int(nil), plan.Order...),
		CheckpointAfter: append([]bool(nil), plan.CheckpointAfter...),
		Weights:         make([]float64, len(plan.Order)),
		segs:            segs,
	}
	for i, id := range plan.Order {
		w.Weights[i] = g.Weight(id)
	}
	w.fp = w.fingerprint()
	return w, nil
}

// Len returns the number of positions.
func (w *Workload) Len() int { return len(w.Order) }

// Segments returns the number of segments (= checkpoints in the plan).
func (w *Workload) Segments() int { return len(w.segs) }

// Planned returns the plan's exact expected makespan under m: the
// forward sum of Proposition 1 over segments, identical term-for-term
// to core.ChainProblem.Makespan (chains). For DAG plans it agrees with
// the solvers' Expected to rounding only, because the solvers sum
// segment work as prefix differences and associate right to left: the
// relative gap is ~1e-15 at 10³ tasks and ~1e-14 at 10⁴ on layered
// graphs (E18 checks agreement to 1e-9).
func (w *Workload) Planned(m expectation.Model) float64 {
	var total float64
	for _, sg := range w.segs {
		total += m.ExpectedTime(sg.Work, sg.Checkpoint, sg.Recovery)
	}
	return total
}

// meanCheckpointCost is the plan's mean per-segment checkpoint cost:
// the adaptive executor's reference C for drift ratios, taken from the
// original plan so later splices never move it.
func (w *Workload) meanCheckpointCost() float64 {
	var sum float64
	for _, sg := range w.segs {
		sum += sg.Checkpoint
	}
	return sum / float64(len(w.segs))
}

// Fingerprint identifies the workload (order, weights, checkpoint
// vector, segment costs). The executor mixes it with the source
// fingerprint into every checkpoint and refuses to resume a mismatch.
func (w *Workload) Fingerprint() uint64 { return w.fp }

func (w *Workload) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	wr := func(v uint64) {
		putU64(b[:], v)
		h.Write(b[:])
	}
	wr(uint64(len(w.Order)))
	for _, id := range w.Order {
		wr(uint64(uint32(id)))
	}
	for _, ck := range w.CheckpointAfter {
		if ck {
			wr(1)
		} else {
			wr(0)
		}
	}
	for _, wt := range w.Weights {
		wr(math.Float64bits(wt))
	}
	wr(uint64(len(w.segs)))
	for _, sg := range w.segs {
		wr(math.Float64bits(sg.Checkpoint))
		wr(math.Float64bits(sg.Recovery))
	}
	return h.Sum64()
}

// String summarizes the workload.
func (w *Workload) String() string {
	return fmt.Sprintf("workload{n=%d segments=%d fp=%016x}", w.Len(), w.Segments(), w.fp)
}
