// Package dag provides the application task-graph model of the paper's
// framework (Section 2): a DAG G = (V, E) whose nodes are tasks weighted
// by computational weight w_i, checkpoint cost C_i and recovery cost R_i.
// Under the full-parallelism assumption the scheduler linearizes the DAG,
// so the package also provides topological machinery (orders, enumeration,
// chain detection) and generators for the workflow shapes cited in the
// paper's motivation (linear chains, fork–join pipelines, layered random
// DAGs, Montage-like shapes).
package dag

import (
	"errors"
	"fmt"
	"sort"
)

// Task is a node of the application graph.
type Task struct {
	// ID is the task's index in the graph (0-based, assigned by AddTask).
	ID int
	// Name is an optional human-readable label.
	Name string
	// Weight is the computational weight w_i (time units of work).
	Weight float64
	// Checkpoint is the cost C_i of checkpointing right after this task.
	Checkpoint float64
	// Recovery is the cost R_i of recovering from the checkpoint taken
	// after this task.
	Recovery float64
}

// Graph is a directed acyclic application graph. The zero value is an
// empty graph ready for use.
type Graph struct {
	tasks []Task
	succ  [][]int
	pred  [][]int
	edges int
}

// ErrCycle is returned when an operation requires acyclicity and the graph
// has a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddTask appends a task and returns its ID.
func (g *Graph) AddTask(t Task) (int, error) {
	if t.Weight < 0 || t.Checkpoint < 0 || t.Recovery < 0 {
		return 0, fmt.Errorf("dag: task %q has negative weight/checkpoint/recovery (%v, %v, %v)",
			t.Name, t.Weight, t.Checkpoint, t.Recovery)
	}
	t.ID = len(g.tasks)
	if t.Name == "" {
		t.Name = fmt.Sprintf("T%d", t.ID+1)
	}
	g.tasks = append(g.tasks, t)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return t.ID, nil
}

// MustAddTask is AddTask for callers with statically valid tasks
// (generators, tests); it panics on error.
func (g *Graph) MustAddTask(t Task) int {
	id, err := g.AddTask(t)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge adds the dependence from → to (from must complete before to).
// Duplicate edges are rejected. Cycles are detected lazily by Validate and
// by the traversal functions.
func (g *Graph) AddEdge(from, to int) error {
	if err := g.checkID(from); err != nil {
		return err
	}
	if err := g.checkID(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("dag: self-loop on task %d", from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("dag: duplicate edge %d → %d", from, to)
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge that panics on error, for generators and tests.
func (g *Graph) MustAddEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

func (g *Graph) checkID(id int) error {
	if id < 0 || id >= len(g.tasks) {
		return fmt.Errorf("dag: task id %d out of range [0, %d)", id, len(g.tasks))
	}
	return nil
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// EdgeCount returns the number of dependence edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) Task { return g.tasks[id] }

// Tasks returns a copy of the task list in ID order.
func (g *Graph) Tasks() []Task {
	out := make([]Task, len(g.tasks))
	copy(out, g.tasks)
	return out
}

// Successors returns the direct successors of id. The slice is the
// graph's own, not a copy, so hot loops read adjacency without
// allocating: callers must not modify its elements. Its capacity is
// clipped, so an append copies instead of writing into the graph.
func (g *Graph) Successors(id int) []int {
	s := g.succ[id]
	return s[:len(s):len(s)]
}

// Predecessors returns the direct predecessors of id, read-only like
// Successors.
func (g *Graph) Predecessors(id int) []int {
	s := g.pred[id]
	return s[:len(s):len(s)]
}

// TotalWeight returns Σ w_i.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	for _, t := range g.tasks {
		sum += t.Weight
	}
	return sum
}

// SetCosts overwrites every task's checkpoint and recovery cost with the
// given constants, the homogeneous cost model of Proposition 2.
func (g *Graph) SetCosts(checkpoint, recovery float64) {
	for i := range g.tasks {
		g.tasks[i].Checkpoint = checkpoint
		g.tasks[i].Recovery = recovery
	}
}

// Validate checks structural invariants: acyclicity and cost sanity.
func (g *Graph) Validate() error {
	if _, err := g.TopologicalOrder(); err != nil {
		return err
	}
	for _, t := range g.tasks {
		if t.Weight < 0 || t.Checkpoint < 0 || t.Recovery < 0 {
			return fmt.Errorf("dag: task %d has negative parameters", t.ID)
		}
	}
	return nil
}

// TopologicalOrder returns task IDs in a deterministic (smallest-ID-first)
// topological order, or ErrCycle.
func (g *Graph) TopologicalOrder() ([]int, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := range g.pred {
		indeg[i] = len(g.pred[i])
	}
	// Min-heap on IDs for determinism; n is small enough that a sorted
	// slice is fine and allocation-free enough.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsLinearChain reports whether the graph is a single linear chain
// T_{π(1)} → … → T_{π(n)}, and if so returns the chain order.
//
// It decides in one walk from the first source, checking degrees as it
// goes. A walk that meets only tasks of in- and out-degree ≤ 1 never
// revisits a task (the first revisited one would have two
// predecessors), so a walk of exactly n tasks ending at a sink covers
// the whole graph, which is then a chain; anything else is not.
func (g *Graph) IsLinearChain() ([]int, bool) {
	n := len(g.tasks)
	if n == 0 {
		return nil, true
	}
	start := 0
	for start < n && len(g.pred[start]) != 0 {
		start++
	}
	if start == n {
		return nil, false // no source: cyclic
	}
	order := make([]int, 0, n)
	for v := start; ; {
		if len(g.succ[v]) > 1 || len(g.pred[v]) > 1 {
			return nil, false
		}
		order = append(order, v)
		if len(g.succ[v]) == 0 {
			break
		}
		v = g.succ[v][0]
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// IsIndependent reports whether the graph has no edges (the instance class
// of Proposition 2).
func (g *Graph) IsIndependent() bool { return g.edges == 0 }

// EachTopologicalOrder streams every linearization of the graph to fn,
// up to the given limit (0 means unlimited), in the lexicographic order
// the recursive enumeration produces. fn returning false stops the
// enumeration early. The order slice is reused between calls — callers
// that retain an order must copy it. Memory is O(n) regardless of how
// many of the (up to n!) orders are enumerated, which is what lets the
// exhaustive DAG solver act as a validation oracle without the O(n!·n)
// materialization the previous AllTopologicalOrders paid.
func (g *Graph) EachTopologicalOrder(limit int, fn func(order []int) bool) {
	n := len(g.tasks)
	if n == 0 {
		// The empty poset has exactly one (empty) linear extension,
		// matching what the materializing enumeration always produced.
		fn(nil)
		return
	}
	indeg := make([]int, n)
	for i := range g.pred {
		indeg[i] = len(g.pred[i])
	}
	cur := make([]int, 0, n)
	used := make([]bool, n)
	emitted := 0
	var rec func() bool
	rec = func() bool {
		if len(cur) == n {
			emitted++
			if !fn(cur) {
				return true
			}
			return limit > 0 && emitted >= limit
		}
		for v := 0; v < n; v++ {
			if used[v] || indeg[v] != 0 {
				continue
			}
			used[v] = true
			cur = append(cur, v)
			for _, s := range g.succ[v] {
				indeg[s]--
			}
			stop := rec()
			for _, s := range g.succ[v] {
				indeg[s]++
			}
			cur = cur[:len(cur)-1]
			used[v] = false
			if stop {
				return true
			}
		}
		return false
	}
	rec()
}

// CountTopologicalOrders counts the linearizations of the graph by
// streaming the enumeration, up to limit (0 means count all). For the
// count alone, Lattice.CountLinearExtensions is exponentially cheaper
// on non-antichain graphs; this function exists for graphs beyond the
// lattice's 64-task cap and for cross-checking the lattice count.
func (g *Graph) CountTopologicalOrders(limit int) int64 {
	var count int64
	g.EachTopologicalOrder(limit, func([]int) bool { count++; return true })
	return count
}

// AllTopologicalOrders materializes every linearization of the graph,
// up to the given limit (0 means unlimited). It costs O(#orders · n)
// memory; prefer EachTopologicalOrder for anything but small test
// graphs.
func (g *Graph) AllTopologicalOrders(limit int) [][]int {
	var out [][]int
	g.EachTopologicalOrder(limit, func(order []int) bool {
		out = append(out, append([]int(nil), order...))
		return true
	})
	return out
}

// CriticalPath returns the length of the longest weight path and one path
// achieving it. With full parallelism the critical path is a lower bound
// on any linearization's failure-free time only through its weights; it is
// exposed for workflow analysis and generators' tests.
func (g *Graph) CriticalPath() (float64, []int, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return 0, nil, err
	}
	n := len(g.tasks)
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range from {
		from[i] = -1
	}
	var best int = -1
	for _, v := range order {
		dist[v] += g.tasks[v].Weight
		if best == -1 || dist[v] > dist[best] {
			best = v
		}
		for _, s := range g.succ[v] {
			if dist[v] > dist[s] {
				dist[s] = dist[v]
				from[s] = v
			}
		}
	}
	if best == -1 {
		return 0, nil, nil
	}
	var path []int
	for v := best; v != -1; v = from[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[best], path, nil
}

// Sinks returns the IDs with no successors.
func (g *Graph) Sinks() []int {
	var out []int
	for i := range g.succ {
		if len(g.succ[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New()
	for _, t := range g.tasks {
		out.MustAddTask(Task{Name: t.Name, Weight: t.Weight, Checkpoint: t.Checkpoint, Recovery: t.Recovery})
	}
	for v, ss := range g.succ {
		for _, s := range ss {
			out.MustAddEdge(v, s)
		}
	}
	return out
}
