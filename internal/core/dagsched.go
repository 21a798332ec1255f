package core

import (
	"errors"
	"fmt"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/par"
)

// CostModel abstracts what a checkpoint and a recovery cost on a
// linearized DAG. The set is closed: only LastTaskCosts and LiveSetCosts
// satisfy it, and every solver dispatches on the two with one type
// switch. The paper's base model (Section 2) charges the C_i/R_i of the
// task right before the checkpoint; the Section 6 extension charges a
// function of every live task — tasks executed in the segment whose
// outputs are still needed. PlanSegments resolves either model's costs
// for a checkpointed linearization.
type CostModel interface {
	// InitialRecovery returns R₀, the restart cost before any checkpoint.
	InitialRecovery() float64
	// Name identifies the model in experiment tables.
	Name() string
	// costModel seals the set.
	costModel()
}

// errNoCostModel rejects a nil CostModel.
var errNoCostModel = errors.New("core: nil cost model")

// LastTaskCosts is the paper's base cost model: C_j and R_j of the last
// executed task j. For linear chains it is fully general (Section 6 notes
// a single task's state ever needs saving).
type LastTaskCosts struct {
	// R0 is the initial-recovery cost.
	R0 float64
}

// InitialRecovery returns R₀.
func (lc LastTaskCosts) InitialRecovery() float64 { return lc.R0 }

// Name implements CostModel.
func (lc LastTaskCosts) Name() string { return "last-task" }

func (LastTaskCosts) costModel() {}

// LiveSetCosts is the Section 6 extension model: a checkpoint after
// position end saves every task of the current segment whose output is
// still needed — i.e. tasks with a successor scheduled after end, plus
// sinks (their outputs are final results). Checkpoint cost is the sum of
// those tasks' C_i (the natural additive choice of f); recovery restores
// the full live state, summing R_i over all live tasks of the prefix.
// Both sums run in position order.
type LiveSetCosts struct {
	// R0 is the initial-recovery cost.
	R0 float64
}

// InitialRecovery returns R₀.
func (lv LiveSetCosts) InitialRecovery() float64 { return lv.R0 }

// Name implements CostModel.
func (lv LiveSetCosts) Name() string { return "live-set" }

func (LiveSetCosts) costModel() {}

// liveIndex is the live-output bookkeeping of one linearization under
// LiveSetCosts, shared by the live-set DP arm and PlanSegments: where
// each task sits, when each position's output dies, and which outputs
// die once a position has run. Its buffers are reused across orders.
type liveIndex struct {
	// pos[id] is the position of task id.
	pos []int
	// lastUse[i] is the position after which the output of position i
	// is dead — its latest-scheduled successor — or n for sinks, whose
	// outputs are final results and stay live.
	lastUse []int
	// The positions whose outputs die once position j has run are
	// retired[retireOff[j]:retireOff[j+1]], in increasing order.
	retireOff, retired []int
}

// build fills the index for order.
func (li *liveIndex) build(g *dag.Graph, order []int) {
	n := len(order)
	li.pos = grow(li.pos, g.Len())
	for i, id := range order {
		li.pos[id] = i
	}
	li.lastUse = grow(li.lastUse, n)
	li.retireOff = grow(li.retireOff, n+1)
	clear(li.retireOff)
	for i, id := range order {
		last := n
		if succ := g.Successors(id); len(succ) > 0 {
			last = 0
			for _, s := range succ {
				last = max(last, li.pos[s])
			}
			li.retireOff[last+1]++
		}
		li.lastUse[i] = last
	}
	for j := 0; j < n; j++ {
		li.retireOff[j+1] += li.retireOff[j]
	}
	// Counting sort by last use: retireOff[j] serves as the cursor of
	// list j, so after the fill it holds the start of list j+1.
	li.retired = grow(li.retired, li.retireOff[n])
	for i, last := range li.lastUse {
		if last < n {
			li.retired[li.retireOff[last]] = i
			li.retireOff[last]++
		}
	}
	copy(li.retireOff[1:], li.retireOff[:n])
	li.retireOff[0] = 0
}

// retiredAt returns the positions whose outputs die once position j has
// run.
func (li *liveIndex) retiredAt(j int) []int {
	return li.retired[li.retireOff[j]:li.retireOff[j+1]]
}

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

// SolveOrderDP computes the optimal checkpoint placement for a fixed
// linearization of g under either cost model: the Proposition 3 dynamic
// program generalized to segment-dependent checkpoint costs. The
// recovery cost of a segment depends only on where the previous checkpoint
// sits, so optimal substructure is preserved and the DP stays exact for
// the given order.
//
// Each model has its own arm: LastTaskCosts, whose checkpoint cost
// ignores the segment start, runs on the segment-expectation kernel with
// exact pruning, like SolveChainDP; LiveSetCosts maintains live sets
// incrementally (O(total out-degree) amortized per row instead of
// per-pair rescans) and prunes with a work-only kernel bound. Either way
// the reported Expected is re-accumulated over the chosen placement from
// PlanSegments' costs, segment + suffix association.
func SolveOrderDP(g *dag.Graph, order []int, m expectation.Model, cm CostModel) (DAGResult, error) {
	return solveOrderDPWith(g, order, m, cm, &orderScratch{})
}

// SolveOrderSuffix re-decides the checkpoints of positions [from, n−1]
// of a linearization whose prefix has already run: the SolveOrderDP
// recurrence and arms restricted to the rows x ≥ from, with overhead
// added to every checkpoint cost inside the decision only (an estimate
// of what the store adds to each checkpoint). Costs are taken against
// the full order at absolute positions — a suffix sub-order would
// distort live sets — and the returned segments carry PlanSegments'
// true costs at those positions. SolveOrderDP is the from = 0,
// overhead = 0 case.
func SolveOrderSuffix(g *dag.Graph, order []int, m expectation.Model, cm CostModel, from int, overhead float64) ([]Segment, error) {
	n := len(order)
	if from < 0 || from >= n {
		return nil, fmt.Errorf("core: suffix start %d out of range [0, %d)", from, n)
	}
	if !(overhead >= 0) {
		return nil, fmt.Errorf("core: checkpoint overhead %v, want ≥ 0", overhead)
	}
	sc := &orderScratch{}
	next, err := solveOrderNext(g, order, m, cm, sc, from, overhead)
	if err != nil {
		return nil, err
	}
	ckv := make([]bool, n)
	for x := from; x < n; x = next[x] + 1 {
		ckv[next[x]] = true
	}
	return sc.segments(g, order, ckv, cm, from), nil
}

// PlanSegments costs the segments of a checkpointed linearization of g
// under cm in one pass. Segments start at position from and after every
// checkpoint at or past it, and end at the next checkpoint (positions
// past the last checkpoint form no segment). Work sums the segment's
// weights in position order; Checkpoint and Recovery are the model's
// costs at absolute positions of the full order, Recovery being R₀ at
// position 0, so a suffix is costed against the prefix that ran before
// it. Under LiveSetCosts both are in-order sums over the live outputs,
// the same terms in the same order as a per-segment rescan, in
// O(n + e + Σ live outputs walked) time.
func PlanSegments(g *dag.Graph, order []int, checkpointAfter []bool, cm CostModel, from int) ([]Segment, error) {
	n := len(order)
	switch {
	case cm == nil:
		return nil, errNoCostModel
	case n != g.Len() || len(checkpointAfter) != n:
		return nil, fmt.Errorf("%w: %d positions and %d checkpoint flags for %d tasks", ErrBadPlan, n, len(checkpointAfter), g.Len())
	case from < 0 || from >= n:
		return nil, fmt.Errorf("%w: segment start %d out of range [0, %d)", ErrBadPlan, from, n)
	}
	return (&orderScratch{}).segments(g, order, checkpointAfter, cm, from), nil
}

// segments is PlanSegments over the scratch's buffers; the result is
// valid until the scratch's next use.
func (sc *orderScratch) segments(g *dag.Graph, order []int, checkpointAfter []bool, cm CostModel, from int) []Segment {
	count := 0
	for _, ck := range checkpointAfter[from:] {
		if ck {
			count++
		}
	}
	segs := grow(sc.segs, count)[:0]
	start := from
	for end := from; end < len(order); end++ {
		if !checkpointAfter[end] {
			continue
		}
		sg := Segment{Start: start, End: end}
		for i := start; i <= end; i++ {
			sg.Work += g.Weight(order[i])
		}
		segs = append(segs, sg)
		start = end + 1
	}
	switch cm := cm.(type) {
	case LastTaskCosts:
		for k := range segs {
			sg := &segs[k]
			sg.Checkpoint = g.Checkpoint(order[sg.End])
			sg.Recovery = cm.R0
			if sg.Start > 0 {
				sg.Recovery = g.Recovery(order[sg.Start-1])
			}
		}
	case LiveSetCosts:
		sc.liveSetSegmentCosts(g, order, cm.R0, segs)
	}
	sc.segs = segs
	return segs
}

// liveSetSegmentCosts fills the LiveSetCosts checkpoint and recovery
// costs of segs (increasing, disjoint) in one pass over the order. The
// checkpoint closing [x, j] sums C over the positions of [x, j] still
// live once j has run. The recovery before x sums R over the live list:
// the position-ordered outputs still live once x−1 has run, built by
// appending each executed position and unlinking its retirements. The
// list's leading run of sinks is frozen — sinks never retire and every
// append lands at the tail — so its partial sum is carried from one
// segment to the next and only the rest of the list is walked.
func (sc *orderScratch) liveSetSegmentCosts(g *dag.Graph, order []int, r0 float64, segs []Segment) {
	n := len(order)
	li := &sc.live
	li.build(g, order)
	lastUse := li.lastUse
	// Doubly linked over positions; n is the head sentinel.
	sc.link = grow(sc.link, 2*(n+1))
	prev, next := sc.link[:n+1], sc.link[n+1:]
	prev[n], next[n] = n, n
	// frozen is the last member of the sink run (n while it is empty).
	frozen, frozenSum := n, 0.0
	ran := 0 // positions [0, ran) have been appended
	for k := range segs {
		sg := &segs[k]
		sg.Recovery = r0
		if sg.Start > 0 {
			for ; ran < sg.Start; ran++ {
				prev[ran], next[ran] = prev[n], n
				next[prev[n]] = ran
				prev[n] = ran
				for _, p := range li.retiredAt(ran) {
					next[prev[p]] = next[p]
					prev[next[p]] = prev[p]
				}
			}
			for q := next[frozen]; q != n && lastUse[q] == n; q = next[q] {
				frozenSum += g.Recovery(order[q])
				frozen = q
			}
			sum := frozenSum
			for q := next[frozen]; q != n; q = next[q] {
				sum += g.Recovery(order[q])
			}
			sg.Recovery = sum
		}
		var ck float64
		for i := sg.Start; i <= sg.End; i++ {
			if lastUse[i] > sg.End {
				ck += g.Checkpoint(order[i])
			}
		}
		sg.Checkpoint = ck
	}
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
	live       liveIndex
	cPos, rPos []float64
	// segment ledger
	segs []Segment
	link []int
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
	return orderResult(g, order, m, cm, next, sc), nil
}

// solveOrderNext runs the per-order DP over the rows x ∈ [from, n) with
// overhead added to each checkpoint cost, dispatching to the cost
// model's arm. It returns next, where next[x] is the end of the first
// segment of the optimal plan from x; entries below from are
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
	switch cm := cm.(type) {
	case LastTaskCosts:
		return solveOrderDPKernel(g, order, m, cm, sc, from, overhead)
	case LiveSetCosts:
		return solveOrderDPLiveSet(g, order, m, cm, sc, from, overhead)
	}
	return nil, errNoCostModel
}

// orderPrefix returns the weight prefix sums of a linearization.
func orderPrefix(g *dag.Graph, order []int) []float64 {
	prefix := make([]float64, len(order)+1)
	for i, id := range order {
		prefix[i+1] = prefix[i] + g.Weight(id)
	}
	return prefix
}

// solveOrderDPKernel is the LastTaskCosts arm: per-position cost tables
// feed the segment-expectation kernel, and the pruned scan mirrors
// SolveChainDP.
func solveOrderDPKernel(g *dag.Graph, order []int, m expectation.Model, lc LastTaskCosts, sc *orderScratch, from int, overhead float64) ([]int, error) {
	n := len(order)
	sc.weights = grow(sc.weights, n)
	sc.ckpt = grow(sc.ckpt, n)
	sc.rec = grow(sc.rec, n-1)
	for i, id := range order {
		sc.weights[i] = g.Weight(id)
		sc.ckpt[i] = g.Checkpoint(id) + overhead
		if i < n-1 {
			sc.rec[i] = g.Recovery(id)
		}
	}
	kern, err := sc.reinitKernel(m, sc.weights, sc.ckpt, lc.R0, sc.rec)
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

// orderResult reconstructs the checkpoint vector from a next[] table and
// re-accumulates the expectation over its PlanSegments costs (work as a
// prefix difference, segment + suffix association), so both arms report
// through the same arithmetic.
func orderResult(g *dag.Graph, order []int, m expectation.Model, cm CostModel, next []int, sc *orderScratch) DAGResult {
	n := len(order)
	prefix := orderPrefix(g, order)
	ckv := make([]bool, n)
	for x := 0; x < n; x = next[x] + 1 {
		ckv[next[x]] = true
	}
	segs := sc.segments(g, order, ckv, cm, 0)
	total := 0.0
	for k := len(segs) - 1; k >= 0; k-- {
		sg := segs[k]
		total = m.ExpectedTime(prefix[sg.End+1]-prefix[sg.Start], sg.Checkpoint, sg.Recovery) + total
	}
	return DAGResult{Order: append([]int(nil), order...), CheckpointAfter: ckv, Expected: total}
}

// solveOrderDPLiveSet is the accelerated DP for the Section 6 live-set
// cost model. Instead of recomputing live sets from scratch for every
// (start, end) pair — which makes a plain DP effectively cubic — it
// takes each position's last use (the latest-scheduled successor) from
// the live index, maintains the segment checkpoint cost incrementally
// while the inner scan extends the segment (add the new task's C, retire
// tasks whose last use is the new end), and computes all recovery costs
// in one incremental sweep. Per row the cost work is O(scan length +
// retired positions), i.e. O(total out-degree) amortized. The scan is
// pruned with a work-only kernel bound: checkpoint costs and the suffix
// re-solve's overhead are nonnegative, so a zero-cost segment
// expectation bounds the true one from below.
func solveOrderDPLiveSet(g *dag.Graph, order []int, m expectation.Model, lv LiveSetCosts, sc *orderScratch, from int, overhead float64) ([]int, error) {
	n := len(order)
	li := &sc.live
	li.build(g, order)
	sc.weights = grow(sc.weights, n)
	sc.cPos = grow(sc.cPos, n)
	sc.rPos = grow(sc.rPos, n)
	weights, cPos, rPos := sc.weights, sc.cPos, sc.rPos
	for i, id := range order {
		weights[i] = g.Weight(id)
		cPos[i] = g.Checkpoint(id)
		rPos[i] = g.Recovery(id)
	}
	// All recovery costs in one incremental sweep: rec(end) adds the
	// task that just ran (its output is always live at its own position)
	// and retires outputs last used at end.
	sc.rec = grow(sc.rec, n-1)
	recAfter := sc.rec
	acc := 0.0
	for end := 0; end < n-1; end++ {
		acc += rPos[end]
		for _, p := range li.retiredAt(end) {
			acc -= rPos[p]
		}
		recAfter[end] = acc
	}
	// Work-only kernel: zero checkpoint costs make its Segment a lower
	// bound on every live-set segment expectation, which drives pruning;
	// SegmentWithCost supplies the exact per-transition value.
	sc.ckpt = grow(sc.ckpt, n)
	clear(sc.ckpt)
	kern, err := sc.reinitKernel(m, weights, sc.ckpt, lv.R0, recAfter)
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
			for _, p := range li.retiredAt(j) {
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
			return readyListOrder(g, func(g *dag.Graph, a, b int) bool {
				if wa, wb := g.Weight(a), g.Weight(b); wa != wb {
					return wa > wb
				}
				return a < b
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
			return readyListOrder(g, func(g *dag.Graph, a, b int) bool {
				if ca, cb := g.Checkpoint(a), g.Checkpoint(b); ca != cb {
					return ca < cb
				}
				return a < b
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
// its ID tie-break, so the pop sequence is deterministic). Its init,
// push and pop are container/heap's Init, Push and Pop, step for step,
// on a typed slice, so no ID is boxed into an interface.
type readyQueue struct {
	g    *dag.Graph
	less func(g *dag.Graph, a, b int) bool // on task IDs; capturing nothing, it costs no allocation
	ids  []int
}

func (q *readyQueue) lessAt(i, j int) bool {
	return q.less(q.g, q.ids[i], q.ids[j])
}

func (q *readyQueue) init() {
	n := len(q.ids)
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, n)
	}
}

func (q *readyQueue) push(v int) {
	q.ids = append(q.ids, v)
	q.up(len(q.ids) - 1)
}

func (q *readyQueue) pop() int {
	n := len(q.ids) - 1
	q.ids[0], q.ids[n] = q.ids[n], q.ids[0]
	q.down(0, n)
	v := q.ids[n]
	q.ids = q.ids[:n]
	return v
}

func (q *readyQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.lessAt(j, i) {
			break
		}
		q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
		j = i
	}
}

func (q *readyQueue) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.lessAt(j2, j) {
			j = j2 // right child
		}
		if !q.lessAt(j, i) {
			break
		}
		q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
		i = j
	}
}

// readyListOrder linearizes g by repeatedly scheduling the least ready
// task under the strategy's order. The ready set lives in a heap, so a
// full linearization costs O((n + e)·log n) instead of the O(n²·log n) a
// per-step re-sort of the ready list would pay.
func readyListOrder(g *dag.Graph, less func(g *dag.Graph, a, b int) bool) ([]int, error) {
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
	q.init()
	order := make([]int, 0, n)
	for len(q.ids) > 0 {
		v := q.pop()
		order = append(order, v)
		for _, s := range g.Successors(v) {
			indeg[s]--
			if indeg[s] == 0 {
				q.push(s)
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

// SolveDAG schedules a general DAG heuristically: it tries every
// linearization strategy of DefaultStrategies, runs the exact per-order
// DP on each, and returns the best schedule found. Proposition 2 says
// finding the globally optimal order is strongly NP-hard, so a portfolio
// of orders with exact placement per order is the principled heuristic.
func SolveDAG(g *dag.Graph, m expectation.Model, cm CostModel) (DAGResult, error) {
	return SolveDAGWith(g, m, cm, Options{Workers: 1})
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
	strategies := DefaultStrategies()
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
// Both cost models are order-free, so the reported Expected is
// re-accumulated through the canonical downset-chain arithmetic (see
// downsetChainValue), making it bit-comparable to SolveDAGLattice: both
// solvers evaluate the same mathematical optimum through the same
// expression tree.
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
