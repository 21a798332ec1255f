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

	// Per-segment views, segment s covering positions
	// [segStart[s], segEnd[s]].
	segStart, segEnd []int
	segCkpt, segRec  []float64

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
	w.setSegments(segs)
	w.fp = w.fingerprint()
	return w, nil
}

// NewDAGWorkload compiles a DAG plan into a workload under the given
// cost model: segment [x, j] pays cm.CheckpointCost(g, order, x, j) and
// recovers at cm.InitialRecovery() for x = 0, cm.RecoveryCost(g, order,
// x−1) otherwise — the same costs the DAG schedulers optimize, so
// Planned matches the solver's Expected for the same plan.
func NewDAGWorkload(g *dag.Graph, plan core.Plan, cm core.CostModel) (*Workload, error) {
	if err := plan.Validate(g); err != nil {
		return nil, err
	}
	n := len(plan.Order)
	w := &Workload{
		Order:           append([]int(nil), plan.Order...),
		CheckpointAfter: append([]bool(nil), plan.CheckpointAfter...),
		Weights:         make([]float64, n),
	}
	for i, id := range plan.Order {
		w.Weights[i] = g.Task(id).Weight
	}
	var segs []core.Segment
	start := 0
	for i := 0; i < n; i++ {
		if !plan.CheckpointAfter[i] {
			continue
		}
		seg := core.Segment{
			Start:      start,
			End:        i,
			Checkpoint: cm.CheckpointCost(g, plan.Order, start, i),
		}
		if start == 0 {
			seg.Recovery = cm.InitialRecovery()
		} else {
			seg.Recovery = cm.RecoveryCost(g, plan.Order, start-1)
		}
		segs = append(segs, seg)
		start = i + 1
	}
	w.setSegments(segs)
	w.fp = w.fingerprint()
	return w, nil
}

// setSegments fills the per-segment arrays from core segments.
func (w *Workload) setSegments(segs []core.Segment) {
	w.segStart = make([]int, len(segs))
	w.segEnd = make([]int, len(segs))
	w.segCkpt = make([]float64, len(segs))
	w.segRec = make([]float64, len(segs))
	for s, seg := range segs {
		w.segStart[s] = seg.Start
		w.segEnd[s] = seg.End
		w.segCkpt[s] = seg.Checkpoint
		w.segRec[s] = seg.Recovery
	}
}

// Len returns the number of positions.
func (w *Workload) Len() int { return len(w.Order) }

// Segments returns the number of segments (= checkpoints in the plan).
func (w *Workload) Segments() int { return len(w.segStart) }

// SegmentWork returns Σ weights over segment s.
func (w *Workload) SegmentWork(s int) float64 {
	var sum float64
	for i := w.segStart[s]; i <= w.segEnd[s]; i++ {
		sum += w.Weights[i]
	}
	return sum
}

// Planned returns the plan's exact expected makespan under m: the sum
// of Proposition 1 over segments, identical term-for-term to
// core.ChainProblem.Makespan (chains) and to the DAG solvers' Expected
// (DAG plans compiled with the same cost model).
func (w *Workload) Planned(m expectation.Model) float64 {
	var total float64
	for s := range w.segStart {
		total += m.ExpectedTime(w.SegmentWork(s), w.segCkpt[s], w.segRec[s])
	}
	return total
}

// meanCheckpointCost is the plan's mean per-segment checkpoint cost:
// the adaptive executor's reference C for drift ratios, taken from the
// original plan so later splices never move it.
func (w *Workload) meanCheckpointCost() float64 {
	var sum float64
	for _, c := range w.segCkpt {
		sum += c
	}
	return sum / float64(len(w.segCkpt))
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
	wr(uint64(len(w.segStart)))
	for s := range w.segStart {
		wr(math.Float64bits(w.segCkpt[s]))
		wr(math.Float64bits(w.segRec[s]))
	}
	return h.Sum64()
}

// CoreSegments returns the workload's segments in core form, for
// callers that want to drive sim.Run on the identical segmentation.
func (w *Workload) CoreSegments() []core.Segment {
	segs := make([]core.Segment, w.Segments())
	for s := range segs {
		segs[s] = core.Segment{
			Start:      w.segStart[s],
			End:        w.segEnd[s],
			Work:       w.SegmentWork(s),
			Checkpoint: w.segCkpt[s],
			Recovery:   w.segRec[s],
		}
	}
	return segs
}

// String summarizes the workload.
func (w *Workload) String() string {
	return fmt.Sprintf("workload{n=%d segments=%d fp=%016x}", w.Len(), w.Segments(), w.fp)
}
