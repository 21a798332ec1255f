package dag

import (
	"fmt"
	"math/bits"
)

// Lattice is the bitset machinery over a graph's downset (order-ideal)
// lattice: the partially ordered family of task sets closed under
// predecessors. Every prefix of every linearization is a downset, and —
// because the paper's segment expectation depends on a segment only
// through its task set, its last task, and the checkpointed set — the
// exact DAG scheduling DP (core.SolveDAGLattice) runs over this lattice
// instead of the factorially larger space of linearizations.
//
// Tasks are identified by their bit: task i ↔ bit i of a uint64, which
// caps the lattice machinery at 64 tasks (the exact solver's useful
// range ends far earlier — the lattice itself grows exponentially in
// the graph's width).
type Lattice struct {
	n    int
	pred []uint64 // pred[i] = direct predecessors of i as a bitmask
	succ []uint64 // succ[i] = direct successors of i as a bitmask
	topo []int    // smallest-ID-first topological order
}

// MaxLatticeTasks is the largest graph a Lattice can represent: one
// task per bit of a uint64.
const MaxLatticeTasks = 64

// Lattice builds the downset-lattice view of the graph. It fails on
// cyclic graphs and on graphs with more than MaxLatticeTasks tasks.
func (g *Graph) Lattice() (*Lattice, error) {
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("dag: empty graph has no lattice")
	}
	if n > MaxLatticeTasks {
		return nil, fmt.Errorf("dag: lattice supports at most %d tasks, got %d", MaxLatticeTasks, n)
	}
	topo, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	l := &Lattice{n: n, pred: make([]uint64, n), succ: make([]uint64, n), topo: topo}
	for v := 0; v < n; v++ {
		for _, s := range g.succ.list(v) {
			l.succ[v] |= 1 << uint(s)
			l.pred[s] |= 1 << uint(v)
		}
	}
	return l, nil
}

// Len returns the number of tasks.
func (l *Lattice) Len() int { return l.n }

// Full returns the bitmask of every task — the top of the lattice.
func (l *Lattice) Full() uint64 {
	if l.n == 64 {
		return ^uint64(0)
	}
	return 1<<uint(l.n) - 1
}

// Masks returns copies of the per-task direct predecessor and successor
// bitmasks, for callers that run their own bit-level traversals.
func (l *Lattice) Masks() (pred, succ []uint64) {
	pred = append([]uint64(nil), l.pred...)
	succ = append([]uint64(nil), l.succ...)
	return pred, succ
}

// Topo returns a copy of the smallest-ID-first topological order the
// lattice enumerations follow.
func (l *Lattice) Topo() []int { return append([]int(nil), l.topo...) }

// MaximalIn returns the maximal elements of the set s: tasks of s with
// no direct successor inside s. For a downset these are exactly the
// tasks that can be scheduled last among s.
func (l *Lattice) MaximalIn(s uint64) uint64 {
	var out uint64
	for rest := s; rest != 0; rest &= rest - 1 {
		t := bits.TrailingZeros64(rest)
		if l.succ[t]&s == 0 {
			out |= 1 << uint(t)
		}
	}
	return out
}

// EachDownset calls fn once for every downset of the graph, including
// the empty set and the full set, in depth-first order: each downset is
// produced from its parent by adding the single task whose topological
// index is largest. Enumeration stops early when fn returns false — the
// subtree below the current downset (every downset reached by adding
// tasks of larger topological index) is skipped, siblings continue.
//
// The enumeration is duplicate-free: a downset D is visited exactly
// once, with its tasks added in increasing topological-index order
// (every predecessor precedes its successors in that order, so the
// addition sequence is always feasible).
func (l *Lattice) EachDownset(fn func(d uint64) bool) {
	if !fn(0) {
		return
	}
	l.eachExtension(0, 0, func(d uint64, _ int) bool { return fn(d) })
}

// eachExtension enumerates every downset strictly containing base that
// is reachable by adding tasks with topological index ≥ start, calling
// fn(d, added) with the new downset and the task just added. A false
// return prunes the subtree below d (supersets of d built by this
// branch) but keeps visiting siblings.
func (l *Lattice) eachExtension(base uint64, start int, fn func(d uint64, added int) bool) {
	for idx := start; idx < l.n; idx++ {
		t := l.topo[idx]
		bit := uint64(1) << uint(t)
		if base&bit != 0 || l.pred[t]&^base != 0 {
			continue
		}
		d := base | bit
		if fn(d, t) {
			l.eachExtension(d, idx+1, fn)
		}
	}
}

// CountLinearExtensions returns the number of linearizations
// (topological orders) of the graph, computed by the standard downset
// recursion ext(D) = Σ_{t maximal in D} ext(D ∖ {t}) — O(#downsets ·
// width) instead of actually enumerating the extensions. The result is
// a float64 because realistic counts overflow int64 rapidly (24
// independent tasks already have 24! ≈ 6·10²³ orders); counts up to
// 2⁵³ are exact.
func (l *Lattice) CountLinearExtensions() float64 {
	ext := map[uint64]float64{0: 1}
	// Downsets are enumerated in DFS order, which is not sorted by
	// level; but ext(D) only needs ext of downsets with one task fewer,
	// and each D ∖ {maximal} is itself a downset that the map already
	// holds once every downset of the lower level is computed. Collect
	// per level and sweep levels upward instead.
	byLevel := make([][]uint64, l.n+1)
	l.EachDownset(func(d uint64) bool {
		lv := bits.OnesCount64(d)
		byLevel[lv] = append(byLevel[lv], d)
		return true
	})
	for lv := 1; lv <= l.n; lv++ {
		for _, d := range byLevel[lv] {
			var sum float64
			for rest := l.MaximalIn(d); rest != 0; rest &= rest - 1 {
				t := bits.TrailingZeros64(rest)
				sum += ext[d&^(1<<uint(t))]
			}
			ext[d] = sum
		}
		// Frontier retirement: level lv−1 is never read again.
		for _, d := range byLevel[lv-1] {
			delete(ext, d)
		}
	}
	return ext[l.Full()]
}
