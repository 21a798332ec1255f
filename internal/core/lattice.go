package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/par"
)

// This file implements the exact DAG checkpoint scheduler over the
// downset (order-ideal) lattice, replacing the factorial
// enumerate-every-linearization oracle as the workhorse exact arm.
//
// The key structural fact: for the paper's order-free cost models the
// value of a schedule depends on the linearization only through its
// *checkpointed prefixes*. A schedule is a chain of downsets
// ∅ = D₀ ⊂ D₁ ⊂ … ⊂ D_k = V (one per checkpoint), and each segment
// Dᵢ₋₁ → Dᵢ contributes the Proposition 1 expectation
//
//	E = e^{λ·rec(Dᵢ₋₁)} (1/λ + D) (e^{λ(W(Dᵢ∖Dᵢ₋₁) + C(Dᵢ))} − 1)
//
// whose terms are all order-free: the work W is a set sum; under
// LastTaskCosts C and rec are the costs of the segment's last task
// (any maximal task of Dᵢ); under LiveSetCosts C and rec are sums over
// the live tasks of Dᵢ — a function of the set alone. Minimizing over
// linearizations therefore equals minimizing over downset chains, and
// a DP over lattice states is exact, not heuristic. States are
// (downset, last task) pairs for LastTaskCosts — the recovery in force
// depends on the last executed task — and bare downsets for
// LiveSetCosts. The state space is the lattice (≤ 2ⁿ, typically far
// smaller: n+1 for a chain), against the n! orders the previous
// exhaustive solver enumerated.
//
// Search is branch-and-bound: the SolveDAG portfolio incumbent seeds
// an upper bound, and a state (or a whole DFS subtree of segment
// extensions) is discarded when its value plus an admissible
// failure-free lower bound — remaining work plus the cheapest possible
// final checkpoint, both underestimates of any completion — already
// exceeds the incumbent beyond the kernel slack. Transitions are
// evaluated through expectation.SetKernel, the set-state sibling of
// the positional segment kernel: zero transcendental calls per
// candidate under LastTaskCosts, one expm1 under LiveSetCosts.
// Expansion parallelizes across the states of a level (the engine
// worker-pool idiom); per-worker candidate tables merge with a
// deterministic tie-break, so results and statistics are bit-identical
// for every worker count. Expanded levels retire to compact sorted
// arrays — enough to reconstruct the witness chain — so the live hash
// tables only ever hold the unexpanded frontier.

// latKey identifies one lattice DP state: the checkpointed downset
// plus, for cost models whose recovery depends on it, the task the
// last segment ended with (−1 when untracked and at the root).
type latKey struct {
	d    uint64
	last int16
}

// latVal is a state's best-known accumulated expectation and the
// predecessor state achieving it.
type latVal struct {
	f      float64
	parent latKey
}

// latRecord is a retired state: key and parent, value dropped.
type latRecord struct {
	key    latKey
	parent latKey
}

func keyLess(a, b latKey) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.last < b.last
}

// better reports whether v should replace cur in a state table: lower
// value, or an exact value tie broken toward the smaller parent key —
// a total order independent of arrival order, which is what makes
// parallel expansion deterministic. relax and relaxLocal must share
// this predicate or multi-worker merges could disagree with serial
// runs.
func better(v, cur latVal) bool {
	return v.f < cur.f || (v.f == cur.f && keyLess(v.parent, cur.parent))
}

// relax lowers the table entry for k to v if v improves it.
func relax(table map[latKey]latVal, k latKey, v latVal) {
	if cur, ok := table[k]; !ok || better(v, cur) {
		table[k] = v
	}
}

// LatticeStats reports how much work the lattice solver did.
type LatticeStats struct {
	// States is the number of DP states stored over the whole run —
	// (downset, last) pairs under LastTaskCosts, downsets under
	// LiveSetCosts. Compare against the graph's linear-extension count.
	States int64
	// Expanded counts states whose outgoing segments were enumerated;
	// PrunedStates counts states discarded whole by the bound.
	Expanded, PrunedStates int64
	// PrunedSubtrees counts segment-DFS subtrees cut by the bound.
	PrunedSubtrees int64
	// Transitions counts segment candidates evaluated.
	Transitions int64
	// Incumbent is the upper bound that seeded the branch-and-bound:
	// Options.IncumbentUB when positive (+Inf runs unpruned), the
	// portfolio's expected makespan otherwise.
	Incumbent float64
}

// chainSegment is one checkpointed segment of a downset chain: the
// executed sets before and after, and the task the segment ends with
// (meaningful under LastTaskCosts; under LiveSetCosts it is carried
// for the witness order only).
type chainSegment struct {
	prev, cur uint64
	last      int
}

// SolveDAGLattice computes the globally optimal linearization-plus-
// placement schedule of a DAG under either cost model (both are
// order-free) by dynamic programming over the downset lattice. It
// returns the same optimum as SolveDAGExhaustive — bit-identical, both
// report through downsetChainValue — at a cost of O(states · segments)
// instead of O(n! · n²). Graphs beyond dag.MaxLatticeTasks tasks are
// rejected.
func SolveDAGLattice(g *dag.Graph, m expectation.Model, cm CostModel, opts Options) (DAGResult, error) {
	res, _, err := SolveDAGLatticeStats(g, m, cm, opts)
	return res, err
}

// SolveDAGLatticeStats is SolveDAGLattice, additionally reporting
// search statistics.
func SolveDAGLatticeStats(g *dag.Graph, m expectation.Model, cm CostModel, opts Options) (DAGResult, LatticeStats, error) {
	var stats LatticeStats
	if err := m.Validate(); err != nil {
		return DAGResult{}, stats, err
	}
	if g.Len() == 0 {
		return DAGResult{}, stats, fmt.Errorf("core: empty graph")
	}
	var liveSet bool
	var r0 float64
	switch model := cm.(type) {
	case LastTaskCosts:
		r0 = model.R0
	case LiveSetCosts:
		liveSet = true
		r0 = model.R0
	default:
		return DAGResult{}, stats, errNoCostModel
	}
	lat, err := g.Lattice()
	if err != nil {
		return DAGResult{}, stats, err
	}
	if err := g.Validate(); err != nil {
		return DAGResult{}, stats, err
	}

	n := g.Len()
	weights := make([]float64, n)
	ckpt := make([]float64, n)
	rcov := make([]float64, n)
	totalW := 0.0
	for i := 0; i < n; i++ {
		weights[i] = g.Weight(i)
		ckpt[i] = g.Checkpoint(i)
		rcov[i] = g.Recovery(i)
		totalW += weights[i]
	}
	kern, err := expectation.NewSetKernel(m, weights, ckpt)
	if err != nil {
		return DAGResult{}, stats, err
	}
	// The admissible tail bound: remaining work (each unit of work costs
	// at least itself, failures or not) plus the cheapest checkpoint any
	// final segment can end with — the last task overall is a sink, and
	// a sink's checkpoint cost is charged under both cost models.
	minFinalC := math.Inf(1)
	for _, s := range g.Sinks() {
		if c := g.Checkpoint(s); c < minFinalC {
			minFinalC = c
		}
	}

	ub := opts.IncumbentUB
	if ub <= 0 {
		inc, err := SolveDAGWith(g, m, cm, Options{Workers: opts.Workers})
		if err != nil {
			return DAGResult{}, stats, err
		}
		ub = inc.Expected
	}
	stats.Incumbent = ub

	ls := &latticeSolver{
		kern:      kern,
		lat:       lat,
		weights:   weights,
		ckpt:      ckpt,
		rcov:      rcov,
		totalW:    totalW,
		minFinalC: minFinalC,
		liveSet:   liveSet,
		r0:        r0,
		ub:        ub,
		slack:     kern.Slack(),
	}
	ls.pred, ls.succ = lat.Masks()
	ls.topo = lat.Topo()

	best, retired, finals, err := ls.run(opts, &stats)
	if err != nil {
		return DAGResult{}, stats, err
	}
	segs := ls.reconstruct(best, retired, finals)
	order, ckv := ls.witness(segs)
	return DAGResult{
		Order:           order,
		CheckpointAfter: ckv,
		Expected:        downsetChainValue(g, m, cm, ls.succ, segs),
		Strategy:        "lattice",
	}, stats, nil
}

// latticeSolver carries the immutable per-solve tables of the DP, plus
// the cross-worker state-budget guard.
type latticeSolver struct {
	kern       *expectation.SetKernel
	lat        *dag.Lattice
	pred, succ []uint64
	topo       []int
	weights    []float64
	ckpt       []float64
	rcov       []float64
	totalW     float64
	minFinalC  float64
	liveSet    bool
	r0         float64
	ub         float64
	slack      float64

	// budget guards memory *during* expansion, not only at level
	// boundaries: a single level (the root expands every downset as a
	// first segment) can otherwise materialize the whole lattice before
	// the first exact check. cand counts this level's candidate-table
	// insertions across workers, charging only keys absent from the
	// global tables (read-only while workers run); a distinct new state
	// is then charged at most once per worker table, so candLimit —
	// (budget − stored) × workers, reset per level — can only trip when
	// the distinct new states genuinely exceed the remaining budget.
	// The exact per-level count in run() stays the authoritative test;
	// this guard bounds transient memory at workers× the cap.
	budget    int64
	candLimit int64
	levels    []map[latKey]latVal
	cand      atomic.Int64
	aborted   atomic.Bool
}

// relaxLocal is relax into a worker-private table, charging keys that
// are new to both the local and the global tables against the state
// budget.
func (ls *latticeSolver) relaxLocal(table map[latKey]latVal, k latKey, v latVal) {
	cur, ok := table[k]
	if !ok {
		if ls.budget > 0 {
			if _, stored := ls.levels[bits.OnesCount64(k.d)][k]; !stored {
				if ls.cand.Add(1) > ls.candLimit {
					ls.aborted.Store(true)
				}
			}
		}
		table[k] = v
		return
	}
	if better(v, cur) {
		table[k] = v
	}
}

// latCounters accumulates one worker's statistics for a level.
type latCounters struct {
	expanded, prunedStates, prunedSubtrees, transitions int64
}

// recoveryOf returns the recovery cost in force after checkpointing the
// state: R₀ at the root, the last task's recovery under the base
// model, the live-task recovery sum under the live-set model.
func (ls *latticeSolver) recoveryOf(key latKey) float64 {
	if key.d == 0 {
		return ls.r0
	}
	if !ls.liveSet {
		return ls.rcov[key.last]
	}
	var sum float64
	for rest := key.d; rest != 0; rest &= rest - 1 {
		t := bits.TrailingZeros64(rest)
		if ls.succ[t] == 0 || ls.succ[t]&^key.d != 0 {
			sum += ls.rcov[t]
		}
	}
	return sum
}

// maskWeight returns Σ w over the set.
func (ls *latticeSolver) maskWeight(s uint64) float64 {
	var sum float64
	for rest := s; rest != 0; rest &= rest - 1 {
		sum += ls.weights[bits.TrailingZeros64(rest)]
	}
	return sum
}

// expand enumerates every segment extending the state and relaxes the
// resulting candidate states into out. The segment DFS follows the
// lattice's duplicate-free topological-index order: each recursion
// level adds one ready task, so the work accumulator, the maximal-task
// set, and the live-set checkpoint cost all update incrementally and
// backtrack by value passing.
func (ls *latticeSolver) expand(key latKey, val latVal, out map[latKey]latVal, c *latCounters) {
	f := val.f
	wDone := ls.maskWeight(key.d)
	// With an infinite incumbent nothing may be pruned: +Inf ≥ +Inf
	// would otherwise discard every transition of instances whose true
	// optimum is +Inf (λ·(W+C) past the overflow threshold), which the
	// oracle solves to +Inf rather than erroring.
	ubInf := math.IsInf(ls.ub, 1)
	if !ubInf && f+(ls.totalW-wDone)+ls.minFinalC >= ls.ub*ls.slack {
		c.prunedStates++
		return
	}
	c.expanded++
	amp := ls.kern.Amp(ls.recoveryOf(key))
	n := len(ls.topo)
	wRem := ls.totalW - wDone

	var dfs func(dcur uint64, startIdx int, acc expectation.SetAccum, maxT uint64, ck float64)
	dfs = func(dcur uint64, startIdx int, acc expectation.SetAccum, maxT uint64, ck float64) {
		for idx := startIdx; idx < n; idx++ {
			if ls.aborted.Load() {
				return
			}
			t := ls.topo[idx]
			bit := uint64(1) << uint(t)
			if dcur&bit != 0 || ls.pred[t]&^dcur != 0 {
				continue
			}
			d2 := dcur | bit
			acc2 := ls.kern.Push(acc, t)
			// Subtree bound: the work-only segment term is a lower bound
			// on this segment under any checkpoint cost, it only grows as
			// the segment extends (its excess over the plain work W is
			// nondecreasing in W because λ·amp ≥ 1), and the tail still
			// needs the remaining work plus a final checkpoint. If that
			// already exceeds the incumbent, no descendant can improve it.
			if !ubInf && f+ls.kern.WorkOnly(acc2, amp)+(wRem-acc2.W)+ls.minFinalC >= ls.ub*ls.slack {
				c.prunedSubtrees++
				continue
			}
			if ls.liveSet {
				// The new task is always live at its own execution (its
				// successors cannot precede it); direct predecessors inside
				// the segment whose last successor was t retire.
				ck2 := ck + ls.ckpt[t]
				for rest := ls.pred[t] & (d2 &^ key.d); rest != 0; rest &= rest - 1 {
					u := bits.TrailingZeros64(rest)
					if ls.succ[u]&^d2 == 0 {
						ck2 -= ls.ckpt[u]
					}
				}
				c.transitions++
				ls.relaxLocal(out, latKey{d: d2, last: -1}, latVal{f: f + ls.kern.SegmentCost(acc2, amp, ck2), parent: key})
				dfs(d2, idx+1, acc2, 0, ck2)
			} else {
				// Maximal tasks of d2 inside the segment: adding t kills
				// the maximality of its direct predecessors.
				maxT2 := (maxT &^ ls.pred[t]) | bit
				for rest := maxT2; rest != 0; rest &= rest - 1 {
					j := bits.TrailingZeros64(rest)
					c.transitions++
					ls.relaxLocal(out, latKey{d: d2, last: int16(j)}, latVal{f: f + ls.kern.SegmentLast(acc2, amp, j), parent: key})
				}
				dfs(d2, idx+1, acc2, maxT2, ck)
			}
		}
	}
	dfs(key.d, 0, ls.kern.Empty(), 0, 0)
}

// run executes the level-ordered DP and returns the best final state,
// the retired per-level records, and the final-level table.
func (ls *latticeSolver) run(opts Options, stats *LatticeStats) (latKey, [][]latRecord, map[latKey]latVal, error) {
	n := len(ls.topo)
	ls.budget = opts.MaxStates
	full := ls.lat.Full()
	root := latKey{d: 0, last: -1}
	levels := make([]map[latKey]latVal, n+1)
	levels[0] = map[latKey]latVal{root: {f: 0, parent: root}}
	ls.levels = levels
	retired := make([][]latRecord, n+1)
	stored := int64(1)

	for lvl := 0; lvl < n; lvl++ {
		cur := levels[lvl]
		if len(cur) == 0 {
			continue
		}
		keys := make([]latKey, 0, len(cur))
		for k := range cur {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

		// Expand the level on the pool; workers collect candidates in
		// private tables so no relaxation races, then the tables merge
		// serially — min with a total-order tie-break is independent of
		// both the partition and the merge order.
		w := par.Workers(opts.Workers, len(keys))
		if ls.budget > 0 {
			rem := ls.budget - stored
			if rem < 0 {
				rem = 0
			}
			ls.cand.Store(0)
			if rem > math.MaxInt64/int64(w) {
				ls.candLimit = math.MaxInt64
			} else {
				ls.candLimit = rem * int64(w)
			}
		}
		locals := make([]map[latKey]latVal, w)
		counters := make([]latCounters, w)
		par.Each(w, len(keys), func(worker, i int) error {
			if locals[worker] == nil {
				locals[worker] = make(map[latKey]latVal)
			}
			k := keys[i]
			ls.expand(k, cur[k], locals[worker], &counters[worker])
			return nil
		})
		if ls.aborted.Load() {
			stats.States = stored
			return latKey{}, nil, nil, fmt.Errorf("core: lattice state budget exceeded during level %d expansion (cap %d)", lvl, opts.MaxStates)
		}
		for w := range locals {
			stats.Expanded += counters[w].expanded
			stats.PrunedStates += counters[w].prunedStates
			stats.PrunedSubtrees += counters[w].prunedSubtrees
			stats.Transitions += counters[w].transitions
			for k, v := range locals[w] {
				tl := bits.OnesCount64(k.d)
				if levels[tl] == nil {
					levels[tl] = make(map[latKey]latVal)
				}
				if _, ok := levels[tl][k]; !ok {
					stored++
				}
				relax(levels[tl], k, v)
			}
		}

		// Retire the expanded level to a compact sorted array — values
		// are final (every predecessor lives on a lower level) and only
		// the parent pointers are needed for witness reconstruction.
		recs := make([]latRecord, len(keys))
		for i, k := range keys {
			recs[i] = latRecord{key: k, parent: cur[k].parent}
		}
		retired[lvl] = recs
		levels[lvl] = nil

		// Tighten the incumbent from complete states — only at level
		// boundaries, so pruning decisions (and the reported statistics)
		// are deterministic for every worker count.
		for k, v := range levels[n] {
			if k.d == full && v.f < ls.ub {
				ls.ub = v.f
			}
		}
		if opts.MaxStates > 0 && stored > opts.MaxStates {
			stats.States = stored
			return latKey{}, nil, nil, fmt.Errorf("core: lattice state budget exceeded (%d states, cap %d)", stored, opts.MaxStates)
		}
	}
	stats.States = stored

	finals := levels[n]
	var bestKey latKey
	bestVal := latVal{f: math.Inf(1)}
	found := false
	for k, v := range finals {
		if !found || v.f < bestVal.f || (v.f == bestVal.f && keyLess(k, bestKey)) {
			bestKey, bestVal, found = k, v, true
		}
	}
	if !found {
		return latKey{}, nil, nil, fmt.Errorf("core: lattice search found no complete schedule")
	}
	return bestKey, retired, finals, nil
}

// reconstruct walks parent pointers from the best final state back to
// the root and returns the downset chain in execution order.
func (ls *latticeSolver) reconstruct(best latKey, retired [][]latRecord, finals map[latKey]latVal) []chainSegment {
	parentOf := func(k latKey) latKey {
		lvl := bits.OnesCount64(k.d)
		if lvl == len(ls.topo) {
			return finals[k].parent
		}
		recs := retired[lvl]
		i := sort.Search(len(recs), func(i int) bool { return !keyLess(recs[i].key, k) })
		return recs[i].parent
	}
	var segs []chainSegment
	for k := best; k.d != 0; {
		p := parentOf(k)
		segs = append(segs, chainSegment{prev: p.d, cur: k.d, last: int(k.last)})
		k = p
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// witness materializes a linearization realizing the chain: each
// segment in (global) topological order, with the designated last task
// moved to the segment's end — legal because it is maximal in the
// segment's downset — and a checkpoint after each segment.
func (ls *latticeSolver) witness(segs []chainSegment) ([]int, []bool) {
	n := len(ls.topo)
	order := make([]int, 0, n)
	ckv := make([]bool, n)
	for _, s := range segs {
		seg := s.cur &^ s.prev
		for _, t := range ls.topo {
			if seg&(1<<uint(t)) != 0 && (s.last < 0 || t != s.last) {
				order = append(order, t)
			}
		}
		if s.last >= 0 {
			order = append(order, s.last)
		}
		ckv[len(order)-1] = true
	}
	return order, ckv
}

// downsetChainValue re-accumulates the expectation of a checkpointed
// downset chain with the reference arithmetic: per segment, the work is
// the ascending-ID set sum, costs come from the cost model's set
// semantics, and segments associate right to left like the Algorithm 1
// recursion. Because every term is order-free, a chain has exactly one
// canonical value — SolveDAGLattice and SolveDAGExhaustive both report
// through this function, which is what makes their optima bit-identical
// rather than merely equal to rounding.
func downsetChainValue(g *dag.Graph, m expectation.Model, cm CostModel, succ []uint64, segs []chainSegment) float64 {
	total := 0.0
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		seg := s.cur &^ s.prev
		var w float64
		for rest := seg; rest != 0; rest &= rest - 1 {
			w += g.Weight(bits.TrailingZeros64(rest))
		}
		var ck, rec float64
		switch model := cm.(type) {
		case LastTaskCosts:
			ck = g.Checkpoint(s.last)
			if i == 0 {
				rec = model.R0
			} else {
				rec = g.Recovery(segs[i-1].last)
			}
		case LiveSetCosts:
			ck = liveMaskSum(g, succ, seg, s.cur, false)
			if i == 0 {
				rec = model.R0
			} else {
				p := segs[i-1]
				rec = liveMaskSum(g, succ, p.cur, p.cur, true)
			}
		}
		total = m.ExpectedTime(w, ck, rec) + total
	}
	return total
}

// liveMaskSum sums checkpoint (or recovery) costs over the members of
// `members` that are live once `exec` has executed: sinks, and tasks
// with a successor outside exec.
func liveMaskSum(g *dag.Graph, succ []uint64, members, exec uint64, recovery bool) float64 {
	var sum float64
	for rest := members; rest != 0; rest &= rest - 1 {
		t := bits.TrailingZeros64(rest)
		if succ[t] == 0 || succ[t]&^exec != 0 {
			if recovery {
				sum += g.Recovery(t)
			} else {
				sum += g.Checkpoint(t)
			}
		}
	}
	return sum
}

// canonicalValue maps a per-order DAG result onto its downset chain and
// re-reports its value through downsetChainValue. It returns ok=false
// for graphs beyond the lattice's task cap, in which case the caller
// keeps the positional value.
func canonicalValue(g *dag.Graph, m expectation.Model, cm CostModel, res DAGResult) (float64, bool) {
	lat, err := g.Lattice()
	if err != nil {
		return 0, false
	}
	_, succ := lat.Masks()
	var segs []chainSegment
	var prev, cur uint64
	for i, id := range res.Order {
		cur |= 1 << uint(id)
		if res.CheckpointAfter[i] {
			segs = append(segs, chainSegment{prev: prev, cur: cur, last: id})
			prev = cur
		}
	}
	return downsetChainValue(g, m, cm, succ, segs), true
}
