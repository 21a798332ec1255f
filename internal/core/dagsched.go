package core

import (
	"container/heap"
	"fmt"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/par"
)

// CostModel abstracts what a checkpoint and a recovery cost on a
// linearized DAG. The paper's base model (Section 2) charges the C_i/R_i
// of the task right before the checkpoint; the Section 6 extension charges
// a function of every live task — tasks executed in the segment whose
// outputs are still needed.
type CostModel interface {
	// CheckpointCost returns the cost of a checkpoint taken after
	// position end, when the current segment began at position start.
	CheckpointCost(g *dag.Graph, order []int, start, end int) float64
	// RecoveryCost returns the cost of recovering to the state
	// checkpointed after position end.
	RecoveryCost(g *dag.Graph, order []int, end int) float64
	// InitialRecovery returns R₀, the restart cost before any checkpoint.
	InitialRecovery() float64
	// Name identifies the model in experiment tables.
	Name() string
}

// LastTaskCosts is the paper's base cost model: C_j and R_j of the last
// executed task j. For linear chains it is fully general (Section 6 notes
// a single task's state ever needs saving).
type LastTaskCosts struct {
	// R0 is the initial-recovery cost.
	R0 float64
}

// CheckpointCost returns C of the task at position end.
func (lc LastTaskCosts) CheckpointCost(g *dag.Graph, order []int, _, end int) float64 {
	return g.Task(order[end]).Checkpoint
}

// CheckpointCostStartIndependent reports that CheckpointCost ignores the
// segment start, enabling the kernel fast path of SolveOrderDP.
func (lc LastTaskCosts) CheckpointCostStartIndependent() bool { return true }

// RecoveryCost returns R of the task at position end.
func (lc LastTaskCosts) RecoveryCost(g *dag.Graph, order []int, end int) float64 {
	return g.Task(order[end]).Recovery
}

// InitialRecovery returns R₀.
func (lc LastTaskCosts) InitialRecovery() float64 { return lc.R0 }

// Name implements CostModel.
func (lc LastTaskCosts) Name() string { return "last-task" }

// LiveSetCosts is the Section 6 extension model: a checkpoint after
// position end saves every task of the current segment whose output is
// still needed — i.e. tasks with a successor scheduled after end, plus
// sinks (their outputs are final results). Checkpoint cost is the sum of
// those tasks' C_i (the natural additive choice of f); recovery restores
// the full live state, summing R_i over all live tasks of the prefix.
type LiveSetCosts struct {
	// R0 is the initial-recovery cost.
	R0 float64
}

// liveAt reports whether the task at position i still has a live output
// when the prefix [0, end] has executed.
func liveAt(g *dag.Graph, order []int, executedBy []int, i, end int) bool {
	id := order[i]
	succ := g.Successors(id)
	if len(succ) == 0 {
		return true // sink: output is a final result
	}
	for _, s := range succ {
		if executedBy[s] > end {
			return true
		}
	}
	return false
}

// positionsOf returns, for each task id, its position in order.
func positionsOf(g *dag.Graph, order []int) []int {
	pos := make([]int, g.Len())
	for i, id := range order {
		pos[id] = i
	}
	return pos
}

// CheckpointCost sums C_i over the live tasks of the segment [start, end].
func (lv LiveSetCosts) CheckpointCost(g *dag.Graph, order []int, start, end int) float64 {
	return lv.on(g, order).CheckpointCost(g, order, start, end)
}

// RecoveryCost sums R_i over every live task of the prefix [0, end].
func (lv LiveSetCosts) RecoveryCost(g *dag.Graph, order []int, end int) float64 {
	return lv.on(g, order).RecoveryCost(g, order, end)
}

// on binds the model to one order, computing its task positions once
// for callers that evaluate many costs on that order.
func (lv LiveSetCosts) on(g *dag.Graph, order []int) liveSetOnOrder {
	return liveSetOnOrder{lv, positionsOf(g, order)}
}

// liveSetOnOrder is LiveSetCosts with the task positions of the order
// its methods are called with.
type liveSetOnOrder struct {
	LiveSetCosts
	pos []int
}

func (lo liveSetOnOrder) CheckpointCost(g *dag.Graph, order []int, start, end int) float64 {
	var sum float64
	for i := start; i <= end; i++ {
		if liveAt(g, order, lo.pos, i, end) {
			sum += g.Task(order[i]).Checkpoint
		}
	}
	return sum
}

func (lo liveSetOnOrder) RecoveryCost(g *dag.Graph, order []int, end int) float64 {
	var sum float64
	for i := 0; i <= end; i++ {
		if liveAt(g, order, lo.pos, i, end) {
			sum += g.Task(order[i]).Recovery
		}
	}
	return sum
}

// InitialRecovery returns R₀.
func (lv LiveSetCosts) InitialRecovery() float64 { return lv.R0 }

// Name implements CostModel.
func (lv LiveSetCosts) Name() string { return "live-set" }

var (
	_ CostModel = LastTaskCosts{}
	_ CostModel = LiveSetCosts{}
)

// DAGResult is a full schedule for a DAG: the chosen linearization, the
// optimal checkpoint placement for it, and the expected makespan.
type DAGResult struct {
	// Order is the linearization used.
	Order []int
	// CheckpointAfter is the optimal checkpoint vector for Order.
	CheckpointAfter []bool
	// Expected is the expected makespan.
	Expected float64
	// Strategy names the linearization heuristic that produced Order.
	Strategy string
}

// Plan converts the result into a Plan.
func (r DAGResult) Plan() Plan {
	return Plan{Order: append([]int(nil), r.Order...), CheckpointAfter: append([]bool(nil), r.CheckpointAfter...)}
}

// StartIndependentCosts is implemented by cost models whose
// CheckpointCost ignores the segment start (it depends only on the end
// position). For such models SolveOrderDP evaluates transitions through
// the segment-expectation kernel — no transcendental calls in the inner
// loop, plus exact monotone pruning.
type StartIndependentCosts interface {
	CostModel
	// CheckpointCostStartIndependent reports whether CheckpointCost(g,
	// order, start, end) is the same for every start.
	CheckpointCostStartIndependent() bool
}

// SolveOrderDP computes the optimal checkpoint placement for a fixed
// linearization of g under an arbitrary cost model: the Proposition 3
// dynamic program generalized to segment-dependent checkpoint costs. The
// recovery cost of a segment depends only on where the previous checkpoint
// sits, so optimal substructure is preserved and the DP stays exact for
// the given order.
//
// Cost is O(n²) segment evaluations in general, accelerated per model:
// start-independent models (StartIndependentCosts, e.g. LastTaskCosts)
// run on the segment-expectation kernel with exact pruning, like
// SolveChainDP; LiveSetCosts maintains live sets incrementally (O(total
// out-degree) amortized per row instead of per-pair rescans) and prunes
// with a work-only kernel bound. Either way the reported Expected is
// re-accumulated over the chosen placement with the cost model's own
// arithmetic, so accelerated and generic paths report comparable values.
func SolveOrderDP(g *dag.Graph, order []int, m expectation.Model, cm CostModel) (DAGResult, error) {
	return solveOrderDPWith(g, order, m, cm, &orderScratch{})
}

// SolveOrderSuffix re-decides the checkpoints of positions [from, n−1]
// of a linearization whose prefix has already run: the SolveOrderDP
// recurrence and arms restricted to the rows x ≥ from, with overhead
// added to every checkpoint cost inside the decision only (an estimate
// of what the store adds to each checkpoint). Every cost-model call is
// made against the full order at absolute positions — a suffix
// sub-order would distort live sets — and the returned segments carry
// the model's true costs at those positions. SolveOrderDP is the
// from = 0, overhead = 0 case.
func SolveOrderSuffix(g *dag.Graph, order []int, m expectation.Model, cm CostModel, from int, overhead float64) ([]Segment, error) {
	n := len(order)
	if from < 0 || from >= n {
		return nil, fmt.Errorf("core: suffix start %d out of range [0, %d)", from, n)
	}
	if !(overhead >= 0) {
		return nil, fmt.Errorf("core: checkpoint overhead %v, want ≥ 0", overhead)
	}
	next, err := solveOrderNext(g, order, m, cm, &orderScratch{}, from, overhead)
	if err != nil {
		return nil, err
	}
	if lv, ok := cm.(LiveSetCosts); ok {
		cm = lv.on(g, order) // positions once per order, not per cost call
	}
	var segs []Segment
	for x := from; x < n; {
		j := next[x]
		sg := Segment{Start: x, End: j, Checkpoint: cm.CheckpointCost(g, order, x, j), Recovery: recBeforeAt(g, order, cm, x)}
		for i := x; i <= j; i++ {
			sg.Work += g.Task(order[i]).Weight
		}
		segs = append(segs, sg)
		x = j + 1
	}
	return segs, nil
}

// orderScratch holds the reusable buffers of the per-order DPs. The
// portfolio and exhaustive solvers run many per-order DPs back to back
// and keep one scratch per worker, so each order costs zero table
// allocations after the first; SolveOrderDP hands a fresh scratch per
// call. Results are identical either way (expectation.SegmentKernel's
// Reinit contract).
type orderScratch struct {
	weights, ckpt, rec, best []float64
	next                     []int
	kern                     *expectation.SegmentKernel
	// live-set path extras
	pos, lastUse []int
	cPos, rPos   []float64
	retireAt     [][]int
}

// grow returns s resized to n, reusing capacity when possible; grown
// elements may hold stale content, which callers must overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// reinitKernel rebuilds the scratch's kernel for the given tables.
func (sc *orderScratch) reinitKernel(m expectation.Model, weights, ckpt []float64, r0 float64, recAfter []float64) (*expectation.SegmentKernel, error) {
	if sc.kern == nil {
		sc.kern = &expectation.SegmentKernel{}
	}
	if err := sc.kern.Reinit(m, weights, ckpt, r0, recAfter); err != nil {
		return nil, err
	}
	return sc.kern, nil
}

// solveOrderDPWith is SolveOrderDP over caller-owned scratch buffers.
func solveOrderDPWith(g *dag.Graph, order []int, m expectation.Model, cm CostModel, sc *orderScratch) (DAGResult, error) {
	next, err := solveOrderNext(g, order, m, cm, sc, 0, 0)
	if err != nil {
		return DAGResult{}, err
	}
	return orderResult(g, order, m, cm, next), nil
}

// solveOrderNext runs the per-order DP over the rows x ∈ [from, n) with
// overhead added to each checkpoint cost, dispatching to the arm the
// cost model allows. It returns next, where next[x] is the end of the
// first segment of the optimal plan from x; entries below from are
// unspecified.
func solveOrderNext(g *dag.Graph, order []int, m expectation.Model, cm CostModel, sc *orderScratch, from int, overhead float64) ([]int, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := len(order)
	if n == 0 {
		return nil, fmt.Errorf("core: empty order")
	}
	if n != g.Len() {
		return nil, fmt.Errorf("core: order covers %d of %d tasks", n, g.Len())
	}
	if lv, ok := cm.(LiveSetCosts); ok {
		return solveOrderDPLiveSet(g, order, m, lv, sc, from, overhead)
	}
	if si, ok := cm.(StartIndependentCosts); ok && si.CheckpointCostStartIndependent() {
		return solveOrderDPKernel(g, order, m, cm, sc, from, overhead)
	}
	return solveOrderDPGeneric(g, order, m, cm, from, overhead), nil
}

// recBeforeAt returns the recovery cost in force for a segment starting
// at position x: R₀ for x = 0, otherwise the cost model's recovery to
// the checkpoint after x−1. Single source of truth for every
// SolveOrderDP path.
func recBeforeAt(g *dag.Graph, order []int, cm CostModel, x int) float64 {
	if x == 0 {
		return cm.InitialRecovery()
	}
	return cm.RecoveryCost(g, order, x-1)
}

// orderPrefix returns the weight prefix sums of a linearization.
func orderPrefix(g *dag.Graph, order []int) []float64 {
	prefix := make([]float64, len(order)+1)
	for i, id := range order {
		prefix[i+1] = prefix[i] + g.Task(id).Weight
	}
	return prefix
}

// solveOrderDPKernel is the fast path for start-independent checkpoint
// costs: per-position cost tables feed the segment-expectation kernel,
// and the pruned scan mirrors SolveChainDP.
func solveOrderDPKernel(g *dag.Graph, order []int, m expectation.Model, cm CostModel, sc *orderScratch, from int, overhead float64) ([]int, error) {
	n := len(order)
	sc.weights = grow(sc.weights, n)
	sc.ckpt = grow(sc.ckpt, n)
	sc.rec = grow(sc.rec, n-1)
	for i, id := range order {
		sc.weights[i] = g.Task(id).Weight
		sc.ckpt[i] = cm.CheckpointCost(g, order, i, i) + overhead
		if i < n-1 {
			sc.rec[i] = cm.RecoveryCost(g, order, i)
		}
	}
	kern, err := sc.reinitKernel(m, sc.weights, sc.ckpt, cm.InitialRecovery(), sc.rec)
	if err != nil {
		return nil, err
	}
	kern.PrepareBound()
	best := grow(sc.best, n+1)
	sc.best = best
	next := grow(sc.next, n)
	sc.next = next
	best[n] = 0 // reused buffers may hold a previous order's row
	for x := n - 1; x >= from; x-- {
		best[x], next[x], _ = prunedRow(kern, x, best)
	}
	return next, nil
}

// solveOrderDPGeneric is the unaccelerated DP over an arbitrary cost
// model, paying one CheckpointCost call per transition.
func solveOrderDPGeneric(g *dag.Graph, order []int, m expectation.Model, cm CostModel, from int, overhead float64) []int {
	n := len(order)
	prefix := orderPrefix(g, order)
	best := make([]float64, n+1)
	next := make([]int, n)
	for x := n - 1; x >= from; x-- {
		rec := recBeforeAt(g, order, cm, x)
		best[x] = infinity
		next[x] = n - 1
		for j := x; j < n; j++ {
			w := prefix[j+1] - prefix[x]
			ck := cm.CheckpointCost(g, order, x, j) + overhead
			cur := m.ExpectedTime(w, ck, rec) + best[j+1]
			if cur < best[x] {
				best[x] = cur
				next[x] = j
			}
		}
	}
	return next
}

// orderResult reconstructs the checkpoint vector from a next[] table and
// re-accumulates the expectation with the cost model's own arithmetic
// (CheckpointCost/RecoveryCost per chosen segment, segment + suffix
// association), so every SolveOrderDP path reports the value the generic
// DP would.
func orderResult(g *dag.Graph, order []int, m expectation.Model, cm CostModel, next []int) DAGResult {
	n := len(order)
	prefix := orderPrefix(g, order)
	ckv := make([]bool, n)
	for x := 0; x < n; {
		j := next[x]
		ckv[j] = true
		x = j + 1
	}
	if lv, ok := cm.(LiveSetCosts); ok {
		cm = lv.on(g, order) // positions once per order, not per cost call
	}
	total := 0.0
	for j := n - 1; j >= 0; {
		x := j
		for x > 0 && !ckv[x-1] {
			x--
		}
		rec := recBeforeAt(g, order, cm, x)
		total = m.ExpectedTime(prefix[j+1]-prefix[x], cm.CheckpointCost(g, order, x, j), rec) + total
		j = x - 1
	}
	return DAGResult{Order: append([]int(nil), order...), CheckpointAfter: ckv, Expected: total}
}

// solveOrderDPLiveSet is the accelerated DP for the Section 6 live-set
// cost model. Instead of recomputing live sets from scratch for every
// (start, end) pair — which makes the generic DP effectively cubic — it
// precomputes each position's last use (the latest-scheduled successor)
// once, maintains the segment checkpoint cost incrementally while the
// inner scan extends the segment (add the new task's C, retire tasks
// whose last use is the new end), and computes all recovery costs in one
// incremental sweep. Per row the cost work is O(scan length + retired
// positions), i.e. O(total out-degree) amortized. The scan is pruned
// with a work-only kernel bound: checkpoint costs and the suffix
// re-solve's overhead are nonnegative, so a zero-cost segment
// expectation bounds the true one from below.
func solveOrderDPLiveSet(g *dag.Graph, order []int, m expectation.Model, lv LiveSetCosts, sc *orderScratch, from int, overhead float64) ([]int, error) {
	n := len(order)
	sc.pos = grow(sc.pos, g.Len())
	pos := sc.pos
	for i, id := range order {
		pos[id] = i
	}
	sc.weights = grow(sc.weights, n)
	sc.cPos = grow(sc.cPos, n)
	sc.rPos = grow(sc.rPos, n)
	weights, cPos, rPos := sc.weights, sc.cPos, sc.rPos
	for i, id := range order {
		t := g.Task(id)
		weights[i] = t.Weight
		cPos[i] = t.Checkpoint
		rPos[i] = t.Recovery
	}
	// lastUse[i]: the position after which the output of the task at
	// position i is dead — the maximum position of its successors, or n
	// for sinks (final results stay live forever).
	sc.lastUse = grow(sc.lastUse, n)
	lastUse := sc.lastUse
	for i, id := range order {
		succ := g.Successors(id)
		if len(succ) == 0 {
			lastUse[i] = n
			continue
		}
		last := 0
		for _, s := range succ {
			if pos[s] > last {
				last = pos[s]
			}
		}
		lastUse[i] = last
	}
	// retireAt[j]: positions whose output dies once position j has run.
	if cap(sc.retireAt) >= n {
		sc.retireAt = sc.retireAt[:n]
		for i := range sc.retireAt {
			sc.retireAt[i] = sc.retireAt[i][:0]
		}
	} else {
		sc.retireAt = make([][]int, n)
	}
	retireAt := sc.retireAt
	for i, last := range lastUse {
		if last < n {
			retireAt[last] = append(retireAt[last], i)
		}
	}
	// All recovery costs in one incremental sweep: rec(end) adds the
	// task that just ran (its output is always live at its own position)
	// and retires outputs last used at end.
	sc.rec = grow(sc.rec, n-1)
	recAfter := sc.rec
	acc := 0.0
	for end := 0; end < n-1; end++ {
		acc += rPos[end]
		for _, p := range retireAt[end] {
			acc -= rPos[p]
		}
		recAfter[end] = acc
	}
	// Work-only kernel: zero checkpoint costs make its Segment a lower
	// bound on every live-set segment expectation, which drives pruning;
	// SegmentWithCost supplies the exact per-transition value.
	sc.ckpt = grow(sc.ckpt, n)
	for i := range sc.ckpt {
		sc.ckpt[i] = 0
	}
	kern, err := sc.reinitKernel(m, weights, sc.ckpt, lv.InitialRecovery(), recAfter)
	if err != nil {
		return nil, err
	}
	kern.PrepareBound()
	slack := kern.Slack()
	sc.best = grow(sc.best, n+1)
	sc.next = grow(sc.next, n)
	best, next := sc.best, sc.next
	best[n] = 0 // reused buffers may hold a previous order's row
	for x := n - 1; x >= from; x-- {
		bestE := infinity
		bestJ := n - 1
		ckCost := 0.0
		for j := x; j < n; j++ {
			// Extend the segment to j: the new task's output is live, and
			// outputs last used at j retire (if they joined at ≥ x).
			ckCost += cPos[j]
			for _, p := range retireAt[j] {
				if p >= x {
					ckCost -= cPos[p]
				}
			}
			cur := kern.SegmentWithCost(x, j, ckCost+overhead) + best[j+1]
			if cur < bestE {
				bestE = cur
				bestJ = j
			}
			if j+1 < n && kern.Bound(x, j+1) >= bestE*slack {
				break
			}
		}
		best[x] = bestE
		next[x] = bestJ
	}
	return next, nil
}

// LinearizationStrategy produces a topological order of g.
type LinearizationStrategy struct {
	// Name identifies the strategy in tables.
	Name string
	// Order computes the linearization.
	Order func(g *dag.Graph) ([]int, error)
}

// TopoOrderStrategy linearizes by the deterministic smallest-ID
// topological order.
func TopoOrderStrategy() LinearizationStrategy {
	return LinearizationStrategy{
		Name:  "topo-id",
		Order: func(g *dag.Graph) ([]int, error) { return g.TopologicalOrder() },
	}
}

// HeaviestFirstStrategy is a ready-list order that always schedules the
// heaviest ready task next: it drains expensive work early so failures hit
// before, not after, the bulk of the computation was re-executed.
func HeaviestFirstStrategy() LinearizationStrategy {
	return LinearizationStrategy{
		Name: "heaviest-first",
		Order: func(g *dag.Graph) ([]int, error) {
			return readyListOrder(g, func(a, b dag.Task) bool {
				if a.Weight != b.Weight {
					return a.Weight > b.Weight
				}
				return a.ID < b.ID
			})
		},
	}
}

// CheapCheckpointFirstStrategy schedules ready tasks with cheap
// checkpoints first, creating early low-cost checkpoint opportunities.
func CheapCheckpointFirstStrategy() LinearizationStrategy {
	return LinearizationStrategy{
		Name: "cheap-ckpt-first",
		Order: func(g *dag.Graph) ([]int, error) {
			return readyListOrder(g, func(a, b dag.Task) bool {
				if a.Checkpoint != b.Checkpoint {
					return a.Checkpoint < b.Checkpoint
				}
				return a.ID < b.ID
			})
		},
	}
}

// MinLiveSetStrategy greedily picks the ready task minimizing the number
// of live outputs after it runs — a pebbling-style heuristic that keeps
// checkpoints small under the LiveSetCosts model.
func MinLiveSetStrategy() LinearizationStrategy {
	return LinearizationStrategy{
		Name: "min-live-set",
		Order: func(g *dag.Graph) ([]int, error) {
			n := g.Len()
			indeg := make([]int, n)
			doneSucc := make([]int, n) // executed successors per task
			executed := make([]bool, n)
			for i := 0; i < n; i++ {
				indeg[i] = len(g.Predecessors(i))
			}
			live := 0
			order := make([]int, 0, n)
			for len(order) < n {
				bestID, bestDelta := -1, 0
				for v := 0; v < n; v++ {
					if executed[v] || indeg[v] != 0 {
						continue
					}
					// Running v adds one live output (unless v is a sink,
					// which also stays live) and completes some tasks'
					// last successor, retiring their outputs.
					delta := 1
					for _, p := range g.Predecessors(v) {
						if doneSucc[p] == len(g.Successors(p))-1 {
							delta--
						}
					}
					if bestID == -1 || delta < bestDelta || (delta == bestDelta && v < bestID) {
						bestID, bestDelta = v, delta
					}
				}
				if bestID == -1 {
					return nil, dag.ErrCycle
				}
				executed[bestID] = true
				order = append(order, bestID)
				live += bestDelta
				for _, p := range g.Predecessors(bestID) {
					doneSucc[p]++
				}
				for _, s := range g.Successors(bestID) {
					indeg[s]--
				}
			}
			return order, nil
		},
	}
}

// readyQueue is a min-heap of ready task IDs ordered by a strategy's
// comparison function (each strategy's less is a total order thanks to
// its ID tie-break, so the pop sequence is deterministic).
type readyQueue struct {
	g    *dag.Graph
	less func(a, b dag.Task) bool
	ids  []int
}

func (q *readyQueue) Len() int { return len(q.ids) }
func (q *readyQueue) Less(i, j int) bool {
	return q.less(q.g.Task(q.ids[i]), q.g.Task(q.ids[j]))
}
func (q *readyQueue) Swap(i, j int) { q.ids[i], q.ids[j] = q.ids[j], q.ids[i] }
func (q *readyQueue) Push(x any)    { q.ids = append(q.ids, x.(int)) }
func (q *readyQueue) Pop() any {
	last := len(q.ids) - 1
	v := q.ids[last]
	q.ids = q.ids[:last]
	return v
}

// readyListOrder linearizes g by repeatedly scheduling the least ready
// task under the strategy's order. The ready set lives in a heap, so a
// full linearization costs O((n + e)·log n) instead of the O(n²·log n) a
// per-step re-sort of the ready list would pay.
func readyListOrder(g *dag.Graph, less func(a, b dag.Task) bool) ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.Predecessors(i))
	}
	q := &readyQueue{g: g, less: less, ids: make([]int, 0, n)}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			q.ids = append(q.ids, i)
		}
	}
	heap.Init(q)
	order := make([]int, 0, n)
	for q.Len() > 0 {
		v := heap.Pop(q).(int)
		order = append(order, v)
		for _, s := range g.Successors(v) {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(q, s)
			}
		}
	}
	if len(order) != n {
		return nil, dag.ErrCycle
	}
	return order, nil
}

// DefaultStrategies returns the linearization heuristics SolveDAG tries.
func DefaultStrategies() []LinearizationStrategy {
	return []LinearizationStrategy{
		TopoOrderStrategy(),
		HeaviestFirstStrategy(),
		CheapCheckpointFirstStrategy(),
		MinLiveSetStrategy(),
	}
}

// Options tunes the DAG solvers.
type Options struct {
	// Workers bounds the solver parallelism: linearization strategies
	// solved concurrently by the portfolio, lattice states expanded
	// concurrently per level. ≤ 0 means runtime.GOMAXPROCS(0). Results
	// are identical for every worker count.
	Workers int
	// Strategies is the linearization portfolio (nil means
	// DefaultStrategies) — the heuristic arms of SolveDAGWith and the
	// branch-and-bound incumbent of SolveDAGLattice.
	Strategies []LinearizationStrategy
	// MaxStates caps the number of DP states SolveDAGLattice may store
	// (0 means unlimited); exceeding it aborts with an error instead of
	// exhausting memory. The cap is enforced exactly between lattice
	// levels and approximately (per-worker candidate insertions, an
	// overestimate of distinct states) during a level's expansion, so a
	// run near the cap may abort slightly early rather than overshoot.
	MaxStates int64
	// IncumbentUB, when positive, seeds the lattice branch-and-bound
	// with a caller-supplied upper bound instead of running the
	// portfolio internally (callers that already solved the portfolio
	// avoid solving it twice). It MUST be the expected makespan of a
	// valid schedule of the same instance — an underestimate below the
	// true optimum would unsoundly prune it. +Inf disables pruning and
	// explores the full state space. Ignored by SolveDAGWith.
	IncumbentUB float64
}

// SolveDAG schedules a general DAG heuristically: it tries every supplied
// linearization strategy (DefaultStrategies when strategies is nil), runs
// the exact per-order DP on each, and returns the best schedule found.
// Proposition 2 says finding the globally optimal order is strongly
// NP-hard, so a portfolio of orders with exact placement per order is the
// principled heuristic.
func SolveDAG(g *dag.Graph, m expectation.Model, cm CostModel, strategies []LinearizationStrategy) (DAGResult, error) {
	return SolveDAGWith(g, m, cm, Options{Strategies: strategies, Workers: 1})
}

// SolveDAGWith is SolveDAG with explicit Options: the portfolio
// strategies run concurrently on Options.Workers goroutines, each
// reusing one set of per-order DP buffers across the strategies it
// solves. Ties between strategies break toward the earlier strategy in
// the portfolio order regardless of worker count, so the result is
// bit-identical to the serial portfolio.
func SolveDAGWith(g *dag.Graph, m expectation.Model, cm CostModel, opts Options) (DAGResult, error) {
	if g.Len() == 0 {
		return DAGResult{}, fmt.Errorf("core: empty graph")
	}
	if err := g.Validate(); err != nil {
		return DAGResult{}, err
	}
	strategies := opts.Strategies
	if strategies == nil {
		strategies = DefaultStrategies()
	}
	results := make([]DAGResult, len(strategies))
	scratches := make([]*orderScratch, par.Workers(opts.Workers, len(strategies)))
	err := par.Each(opts.Workers, len(strategies), func(w, i int) error {
		sc := scratches[w]
		if sc == nil {
			sc = &orderScratch{}
			scratches[w] = sc
		}
		s := strategies[i]
		order, err := s.Order(g)
		if err != nil {
			return fmt.Errorf("core: strategy %s: %w", s.Name, err)
		}
		res, err := solveOrderDPWith(g, order, m, cm, sc)
		if err != nil {
			return fmt.Errorf("core: strategy %s: %w", s.Name, err)
		}
		res.Strategy = s.Name
		results[i] = res
		return nil
	})
	if err != nil {
		return DAGResult{}, err
	}
	best := DAGResult{Expected: infinity}
	for _, res := range results {
		if res.Expected < best.Expected {
			best = res
		}
	}
	return best, nil
}

// SolveDAGExhaustive streams every linearization (up to limit; 0 means
// all) through the exact per-order DP and returns the global optimum
// over enumerated orders. Still factorial in time — it is the
// validation oracle for SolveDAG and SolveDAGLattice on small graphs —
// but O(n) in memory: orders are enumerated by dag.EachTopologicalOrder
// instead of materialized, and the per-order DP reuses one scratch
// across all orders.
//
// For the order-free cost models (LastTaskCosts, LiveSetCosts) the
// reported Expected is re-accumulated through the canonical
// downset-chain arithmetic (see downsetChainValue), making it
// bit-comparable to SolveDAGLattice: both solvers evaluate the same
// mathematical optimum through the same expression tree.
func SolveDAGExhaustive(g *dag.Graph, m expectation.Model, cm CostModel, limit int) (DAGResult, error) {
	if g.Len() == 0 {
		return DAGResult{}, fmt.Errorf("core: empty graph")
	}
	best := DAGResult{Expected: infinity}
	found := false
	var solveErr error
	sc := &orderScratch{}
	g.EachTopologicalOrder(limit, func(order []int) bool {
		res, err := solveOrderDPWith(g, order, m, cm, sc)
		if err != nil {
			solveErr = err
			return false
		}
		found = true
		if res.Expected < best.Expected {
			best = res
		}
		return true
	})
	if solveErr != nil {
		return DAGResult{}, solveErr
	}
	if !found {
		return DAGResult{}, dag.ErrCycle
	}
	best.Strategy = "exhaustive"
	// Instances where every order evaluates to +Inf never improve the
	// sentinel: best has no order, and there is nothing to re-report
	// (an empty chain would canonicalize to 0, not +Inf).
	if len(best.Order) != 0 {
		if v, ok := canonicalValue(g, m, cm, best); ok {
			best.Expected = v
		}
	}
	return best, nil
}
