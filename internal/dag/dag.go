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
	"math"
	"slices"
	"strconv"
	"unsafe"
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
//
// Storage is a few flat arrays that hold no pointers, so a 10⁶-task
// graph is a handful of heap objects the garbage collector never scans.
// Task fields are stored as a struct of arrays; names sit back to back
// in one byte buffer, the name of task id ending at nameEnd[id]; each
// direction of adjacency is one arena of task IDs (see adjacency). Name
// ends and adjacency runs are int32, so a graph holds at most
// math.MaxInt32 tasks, arena slots per direction and name bytes; the
// constructors refuse anything larger with an error (see checkSize). The
// generators, the JSON reader and Clone size every array once.
//
// Successors and Predecessors return views into an arena: O(1), no copy,
// read-only and capacity-clipped. AddEdge writes only arena slots that
// no view covers, so a view taken before an AddEdge keeps reading the
// list as it was. Names returned by Task share the name buffer, whose
// written bytes are never rewritten. A Graph must not be copied by
// value while both copies are still added to.
type Graph struct {
	weight, ckpt, rec []float64
	names             []byte
	nameEnd           []int32
	succ, pred        adjacency
	edges             int
}

// adjacency is one direction of a graph's edges. Task v's list is
// arena[runs[v].off : runs[v].off+runs[v].n], and its run has room for
// the smallest power of two ≥ n entries (none while n = 0). A push
// writes into the room; a full run that ends the arena doubles its room
// in place, and any other full run moves to the end of the arena with
// room for twice its entries, leaving the old slots to the views that
// may still read them. Lists built one after another, as a chain's are,
// fill the arena densely.
type adjacency struct {
	arena []int
	runs  []run
}

// run is one list's place in the arena. Its fields are int32, half the
// size of ints; checkSize keeps every arena within their range.
type run struct{ off, n int32 }

// list returns v's list as a read-only, capacity-clipped view.
func (a *adjacency) list(v int) []int {
	r := a.runs[v]
	off, end := int(r.off), int(r.off)+int(r.n)
	return a.arena[off:end:end]
}

// growth returns how many slots a push to v's list appends to the
// arena: none while its room has space, else the new room.
func (a *adjacency) growth(v int) int {
	r := a.runs[v]
	n := int(r.n)
	switch {
	case n&(n-1) != 0: // n is not 0 or a power of two: the room has space
		return 0
	case int(r.off)+n == len(a.arena): // the run ends the arena: double its room in place
		return max(n, 1)
	default: // move it to the end with room for 2n
		return max(2*n, 1)
	}
}

// push appends u to v's list.
func (a *adjacency) push(v, u int) {
	r := &a.runs[v]
	if grow := a.growth(v); grow > 0 {
		end := len(a.arena)
		a.arena = slices.Grow(a.arena, grow)[:end+grow]
		if int(r.off)+int(r.n) != end { // moved: copy the list to its new room
			copy(a.arena[end:], a.list(v))
			r.off = int32(end)
		}
	}
	a.arena[int(r.off)+int(r.n)] = u
	r.n++
}

// ErrCycle is returned when an operation requires acyclicity and the graph
// has a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// maxSize is the largest task count, arena length and name-buffer
// length a Graph holds: the bound of its int32 runs and name ends.
const maxSize = math.MaxInt32

// checkSize returns an error when a graph of the given task count, arena
// length (per direction) and name bytes would pass maxSize. It takes
// int64 lengths so that no sum a caller forms wraps first, on any GOARCH.
func checkSize(tasks, slots, nameBytes int64) error {
	if tasks > maxSize || slots > maxSize || nameBytes > maxSize {
		return fmt.Errorf("dag: graph of %d tasks, %d adjacency slots and %d name bytes passes the limit of %d for each",
			tasks, slots, nameBytes, maxSize)
	}
	return nil
}

// sized returns an empty graph whose arrays have room for tasks tasks,
// edges edges and nameBytes bytes of names, so a constructor that knows
// its size allocates each array once. It refuses sizes that could pass
// maxSize. A list of k entries fills fewer than 4k arena slots over all
// its pushes (its room is the next power of two, and each move leaves
// rooms of half, a quarter, … of it behind), so with edges the exact
// count, 4·edges bounds each arena however the links interleave. A
// generator that can only estimate its edges links through tryLink.
func sized(tasks, edges, nameBytes int) (*Graph, error) {
	if err := checkSize(int64(tasks), 4*int64(edges), int64(nameBytes)); err != nil {
		return nil, err
	}
	return &Graph{
		weight:  make([]float64, 0, tasks),
		ckpt:    make([]float64, 0, tasks),
		rec:     make([]float64, 0, tasks),
		names:   make([]byte, 0, nameBytes),
		nameEnd: make([]int32, 0, tasks),
		succ:    adjacency{arena: make([]int, 0, edges), runs: make([]run, 0, tasks)},
		pred:    adjacency{arena: make([]int, 0, edges), runs: make([]run, 0, tasks)},
	}, nil
}

// labelLen is the length of the name add writes for prefix and nums;
// with each num at its largest value it bounds a generator's names.
func labelLen(prefix string, nums ...int) int {
	n := len(prefix)
	for i, x := range nums {
		if i > 0 {
			n++ // the '.' separator
		}
		for n++; x >= 10; x /= 10 {
			n++
		}
	}
	return n
}

// AddTask appends a task and returns its ID. A task without a name is
// named T<ID+1>. It refuses a task that would take the graph past
// math.MaxInt32 tasks or name bytes.
func (g *Graph) AddTask(t Task) (int, error) {
	if t.Weight < 0 || t.Checkpoint < 0 || t.Recovery < 0 {
		return 0, fmt.Errorf("dag: task %q has negative weight/checkpoint/recovery (%v, %v, %v)",
			t.Name, t.Weight, t.Checkpoint, t.Recovery)
	}
	var nums []int
	if t.Name == "" {
		t.Name, nums = "T", []int{g.Len() + 1}
	}
	if err := checkSize(int64(g.Len())+1, 0, int64(len(g.names))+int64(labelLen(t.Name, nums...))); err != nil {
		return 0, err
	}
	return g.add(t, nums...), nil
}

// add appends t unchecked and returns its ID. The task's name is t.Name
// followed by nums in decimal, joined by dots: "L" with 3, 4 names the
// task "L3.4". Generators name their tasks this way, with no formatting
// and no allocation per task.
func (g *Graph) add(t Task, nums ...int) int {
	g.names = append(g.names, t.Name...)
	for i, x := range nums {
		if i > 0 {
			g.names = append(g.names, '.')
		}
		g.names = strconv.AppendInt(g.names, int64(x), 10)
	}
	g.nameEnd = append(g.nameEnd, int32(len(g.names)))
	g.weight = append(g.weight, t.Weight)
	g.ckpt = append(g.ckpt, t.Checkpoint)
	g.rec = append(g.rec, t.Recovery)
	g.succ.runs = append(g.succ.runs, run{})
	g.pred.runs = append(g.pred.runs, run{})
	return len(g.weight) - 1
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
// Duplicate edges, and an edge that would grow an adjacency arena past
// math.MaxInt32 slots, are rejected. Cycles are detected lazily by
// Validate and by the traversal functions.
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
	if slices.Contains(g.succ.list(from), to) {
		return fmt.Errorf("dag: duplicate edge %d → %d", from, to)
	}
	return g.tryLink(from, to)
}

// tryLink is link that refuses an edge growing either arena past
// maxSize, for callers whose edge count sized could not bound: AddEdge
// and the generators that draw their edges at random.
func (g *Graph) tryLink(from, to int) error {
	slots := max(len(g.succ.arena)+g.succ.growth(from), len(g.pred.arena)+g.pred.growth(to))
	if err := checkSize(int64(g.Len()), int64(slots), int64(len(g.names))); err != nil {
		return err
	}
	g.link(from, to)
	return nil
}

// link adds the edge from → to unchecked, for generators whose edges
// are distinct by construction and whose exact count sized checked.
func (g *Graph) link(from, to int) {
	g.succ.push(from, to)
	g.pred.push(to, from)
	g.edges++
}

// MustAddEdge is AddEdge that panics on error, for generators and tests.
func (g *Graph) MustAddEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

func (g *Graph) checkID(id int) error {
	if id < 0 || id >= g.Len() {
		return fmt.Errorf("dag: task id %d out of range [0, %d)", id, g.Len())
	}
	return nil
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.weight) }

// EdgeCount returns the number of dependence edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Task returns the task with the given ID. It does not allocate: the
// name is a view of the graph's name buffer.
func (g *Graph) Task(id int) Task {
	return Task{ID: id, Name: g.name(id), Weight: g.weight[id], Checkpoint: g.ckpt[id], Recovery: g.rec[id]}
}

// Weight returns task id's weight w_i: Task(id).Weight without the name.
func (g *Graph) Weight(id int) float64 { return g.weight[id] }

// Checkpoint returns task id's checkpoint cost C_i.
func (g *Graph) Checkpoint(id int) float64 { return g.ckpt[id] }

// Recovery returns task id's recovery cost R_i.
func (g *Graph) Recovery(id int) float64 { return g.rec[id] }

func (g *Graph) name(id int) string {
	start := 0
	if id > 0 {
		start = int(g.nameEnd[id-1])
	}
	b := g.names[start:g.nameEnd[id]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Tasks returns a copy of the task list in ID order.
func (g *Graph) Tasks() []Task {
	out := make([]Task, g.Len())
	for id := range out {
		out[id] = g.Task(id)
	}
	return out
}

// Successors returns the direct successors of id. The slice is a view of
// the graph's own storage, not a copy, so hot loops read adjacency
// without allocating: callers must not modify its elements. Its capacity
// is clipped, so an append copies instead of writing into the graph, and
// a later AddEdge leaves it unchanged.
func (g *Graph) Successors(id int) []int { return g.succ.list(id) }

// Predecessors returns the direct predecessors of id, a read-only view
// like Successors.
func (g *Graph) Predecessors(id int) []int { return g.pred.list(id) }

// TotalWeight returns Σ w_i.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	for _, w := range g.weight {
		sum += w
	}
	return sum
}

// Validate checks structural invariants: acyclicity and cost sanity.
func (g *Graph) Validate() error {
	if _, err := g.TopologicalOrder(); err != nil {
		return err
	}
	for id := range g.weight {
		if g.weight[id] < 0 || g.ckpt[id] < 0 || g.rec[id] < 0 {
			return fmt.Errorf("dag: task %d has negative parameters", id)
		}
	}
	return nil
}

// TopologicalOrder returns task IDs in a deterministic (smallest-ID-first)
// topological order, or ErrCycle. The ready tasks wait in a binary
// min-heap on IDs, so the order costs O((n + e) log n).
func (g *Graph) TopologicalOrder() ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	for i, r := range g.pred.runs {
		indeg[i] = int(r.n)
	}
	// Ascending IDs already form a min-heap.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		order = append(order, v)
		for _, s := range g.succ.list(v) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
				siftUp(ready)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// siftUp restores the min-heap h after an append.
func siftUp(h []int) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the min-heap h after its root was replaced.
func siftDown(h []int) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
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
	n := g.Len()
	if n == 0 {
		return nil, true
	}
	start := 0
	for start < n && g.pred.runs[start].n != 0 {
		start++
	}
	if start == n {
		return nil, false // no source: cyclic
	}
	order := make([]int, 0, n)
	for v := start; ; {
		s := g.succ.runs[v]
		if s.n > 1 || g.pred.runs[v].n > 1 {
			return nil, false
		}
		order = append(order, v)
		if s.n == 0 {
			break
		}
		v = g.succ.arena[s.off]
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// EachTopologicalOrder streams every linearization of the graph to fn,
// up to the given limit (0 means unlimited), in the lexicographic order
// the recursive enumeration produces. fn returning false stops the
// enumeration early. The order slice is reused between calls — callers
// that retain an order must copy it. Memory is O(n) regardless of how
// many of the (up to n!) orders are enumerated, which is what lets the
// exhaustive DAG solver act as a validation oracle without the O(n!·n)
// materialization the previous AllTopologicalOrders paid.
func (g *Graph) EachTopologicalOrder(limit int, fn func(order []int) bool) {
	n := g.Len()
	if n == 0 {
		// The empty poset has exactly one (empty) linear extension,
		// matching what the materializing enumeration always produced.
		fn(nil)
		return
	}
	indeg := make([]int, n)
	for i, r := range g.pred.runs {
		indeg[i] = int(r.n)
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
			for _, s := range g.succ.list(v) {
				indeg[s]--
			}
			stop := rec()
			for _, s := range g.succ.list(v) {
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
	n := g.Len()
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range from {
		from[i] = -1
	}
	var best int = -1
	for _, v := range order {
		dist[v] += g.weight[v]
		if best == -1 || dist[v] > dist[best] {
			best = v
		}
		for _, s := range g.succ.list(v) {
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
	for i, r := range g.succ.runs {
		if r.n == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy of the graph: every array copied once, so
// the copy's tasks, names and adjacency lists, predecessor order
// included, are the source's.
func (g *Graph) Clone() *Graph {
	return &Graph{
		weight:  slices.Clone(g.weight),
		ckpt:    slices.Clone(g.ckpt),
		rec:     slices.Clone(g.rec),
		names:   slices.Clone(g.names),
		nameEnd: slices.Clone(g.nameEnd),
		succ:    g.succ.clone(),
		pred:    g.pred.clone(),
		edges:   g.edges,
	}
}

func (a *adjacency) clone() adjacency {
	return adjacency{arena: slices.Clone(a.arena), runs: slices.Clone(a.runs)}
}
