package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.MustAddTask(Task{Name: "a", Weight: 1})
	b := g.MustAddTask(Task{Name: "b", Weight: 2})
	c := g.MustAddTask(Task{Name: "c", Weight: 3})
	d := g.MustAddTask(Task{Name: "d", Weight: 4})
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)
	return g
}

func TestAddTaskValidation(t *testing.T) {
	g := New()
	if _, err := g.AddTask(Task{Weight: -1}); err == nil {
		t.Error("negative weight should be rejected")
	}
	id, err := g.AddTask(Task{Weight: 1})
	if err != nil || id != 0 {
		t.Fatalf("AddTask: id=%d err=%v", id, err)
	}
	if g.Task(0).Name != "T1" {
		t.Errorf("default name = %q, want T1", g.Task(0).Name)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.MustAddTask(Task{Weight: 1})
	b := g.MustAddTask(Task{Weight: 1})
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-loop should be rejected")
	}
	if err := g.AddEdge(a, 5); err == nil {
		t.Error("out-of-range target should be rejected")
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b); err == nil {
		t.Error("duplicate edge should be rejected")
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := buildDiamond(t)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < g.Len(); v++ {
		for _, s := range g.Successors(v) {
			if pos[s] < pos[v] {
				t.Errorf("edge %d→%d violated in order %v", v, s, order)
			}
		}
	}
}

// sortedReadyOrder is the reference smallest-ID-first topological
// order: it re-sorts the whole ready list before every pop, quadratic
// on wide graphs.
func sortedReadyOrder(g *Graph) ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] = len(g.Predecessors(v)); indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		slices.Sort(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range g.Successors(v) {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// TestTopologicalOrderMatchesSortedReady: the heap order equals the
// sorted-ready-list reference on every generator, over several seeds
// and sizes, and on a cycle.
func TestTopologicalOrderMatchesSortedReady(t *testing.T) {
	graphs := goldenGraphs(t)
	ws := DefaultWeights()
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		for name, build := range map[string]func() (*Graph, error){
			"chain":       func() (*Graph, error) { return Chain(50, ws, r) },
			"independent": func() (*Graph, error) { return Independent(300, ws, r) },
			"forkjoin":    func() (*Graph, error) { return ForkJoin(7, 5, ws, r) },
			"layered":     func() (*Graph, error) { return Layered(12, 9, 0.2*float64(seed), ws, r) },
			"montage":     func() (*Graph, error) { return MontageLike(6, ws, r) },
		} {
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			graphs[fmt.Sprintf("%s/seed=%d", name, seed)] = g
		}
	}
	cyc := New()
	for i := 0; i < 4; i++ {
		cyc.MustAddTask(Task{Weight: 1})
	}
	cyc.MustAddEdge(3, 1)
	cyc.MustAddEdge(1, 2)
	cyc.MustAddEdge(2, 1)
	graphs["cycle"] = cyc
	for name, g := range graphs {
		got, gotErr := g.TopologicalOrder()
		want, wantErr := sortedReadyOrder(g)
		if !slices.Equal(got, want) || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: heap order %v (err %v), sorted-ready order %v (err %v)", name, got, gotErr, want, wantErr)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a := g.MustAddTask(Task{Weight: 1})
	b := g.MustAddTask(Task{Weight: 1})
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := g.TopologicalOrder(); err == nil {
		t.Error("cycle should be detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate should fail on a cycle")
	}
}

// TestIsLinearChainShapes checks the one-walk decision on the shapes
// that are not chains (a cycle behind the source, a second component, a
// branch off the walk, no source at all) and on a chain listed out of
// order.
func TestIsLinearChainShapes(t *testing.T) {
	build := func(n int, edges ...[2]int) *Graph {
		g := New()
		for i := 0; i < n; i++ {
			g.MustAddTask(Task{Name: fmt.Sprint(i), Weight: 1})
		}
		for _, e := range edges {
			g.MustAddEdge(e[0], e[1])
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		g     *Graph
		order []int
	}{
		{"single", build(1), []int{0}},
		{"reversed", build(3, [2]int{2, 1}, [2]int{1, 0}), []int{2, 1, 0}},
		{"cycle behind source", build(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 1}), nil},
		{"cycle only", build(2, [2]int{0, 1}, [2]int{1, 0}), nil},
		{"two chains", build(4, [2]int{0, 1}, [2]int{2, 3}), nil},
		{"isolated task", build(3, [2]int{0, 1}), nil},
		{"branch off the walk", build(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{3, 2}), nil},
		{"branch after the walk", build(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{2, 1}), nil},
	} {
		order, ok := tc.g.IsLinearChain()
		if ok != (tc.order != nil) || fmt.Sprint(order) != fmt.Sprint(tc.order) {
			t.Errorf("%s: IsLinearChain = %v, %v; want %v", tc.name, order, ok, tc.order)
		}
	}
}

func TestIsLinearChain(t *testing.T) {
	r := rng.New(1)
	g, err := Chain(5, DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	order, ok := g.IsLinearChain()
	if !ok {
		t.Fatal("Chain() must be a linear chain")
	}
	if len(order) != 5 {
		t.Fatalf("chain order %v", order)
	}
	for i := 0; i+1 < len(order); i++ {
		found := false
		for _, s := range g.Successors(order[i]) {
			if s == order[i+1] {
				found = true
			}
		}
		if !found {
			t.Errorf("chain order broken between %d and %d", order[i], order[i+1])
		}
	}
	if _, ok := buildDiamond(t).IsLinearChain(); ok {
		t.Error("diamond must not be a chain")
	}
	ind, _ := Independent(3, DefaultWeights(), r)
	if _, ok := ind.IsLinearChain(); ok {
		t.Error("independent tasks are not a chain")
	}
	if !ind.IsIndependent() {
		t.Error("Independent() must have no edges")
	}
}

func TestAllTopologicalOrders(t *testing.T) {
	g := buildDiamond(t)
	orders := g.AllTopologicalOrders(0)
	if len(orders) != 2 { // a{bc|cb}d
		t.Fatalf("diamond has %d linearizations, want 2", len(orders))
	}
	// With a limit.
	if got := g.AllTopologicalOrders(1); len(got) != 1 {
		t.Errorf("limit ignored: %d orders", len(got))
	}
	// Independent n tasks → n! orders.
	ind, _ := Independent(4, DefaultWeights(), rng.New(2))
	if got := ind.AllTopologicalOrders(0); len(got) != 24 {
		t.Errorf("4 independent tasks have %d orders, want 24", len(got))
	}
}

func TestCriticalPath(t *testing.T) {
	g := buildDiamond(t)
	length, path, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if length != 1+3+4 {
		t.Errorf("critical path length = %v, want 8", length)
	}
	want := []int{0, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := buildDiamond(t)
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Errorf("Sinks = %v", s)
	}
}

func TestSetCostsAndTotalWeight(t *testing.T) {
	g := buildDiamond(t)
	g.SetCosts(0.5, 0.25)
	for _, task := range g.Tasks() {
		if task.Checkpoint != 0.5 || task.Recovery != 0.25 {
			t.Fatalf("SetCosts not applied: %+v", task)
		}
	}
	if g.TotalWeight() != 10 {
		t.Errorf("TotalWeight = %v", g.TotalWeight())
	}
}

func TestClone(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	if c.Len() != g.Len() || c.EdgeCount() != g.EdgeCount() {
		t.Fatal("clone shape differs")
	}
	c.SetCosts(9, 9)
	if g.Task(0).Checkpoint == 9 {
		t.Error("clone shares state with original")
	}
}

func TestGenerators(t *testing.T) {
	r := rng.New(7)
	ws := DefaultWeights()

	fj, err := ForkJoin(3, 2, ws, r)
	if err != nil {
		t.Fatal(err)
	}
	if fj.Len() != 1+3*2+1 {
		t.Errorf("fork-join size = %d", fj.Len())
	}
	if err := fj.Validate(); err != nil {
		t.Errorf("fork-join invalid: %v", err)
	}

	lay, err := Layered(4, 3, 0.5, ws, r)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Len() != 12 {
		t.Errorf("layered size = %d", lay.Len())
	}
	if err := lay.Validate(); err != nil {
		t.Errorf("layered invalid: %v", err)
	}
	// Every non-first-layer task has at least one predecessor.
	for i := 3; i < lay.Len(); i++ {
		if len(lay.Predecessors(i)) == 0 {
			t.Errorf("layered task %d has no predecessor", i)
		}
	}

	mon, err := MontageLike(4, ws, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Validate(); err != nil {
		t.Errorf("montage invalid: %v", err)
	}
	if len(mon.Sinks()) != 1 {
		t.Errorf("montage should funnel into one sink, got %v", mon.Sinks())
	}
}

func TestGeneratorValidation(t *testing.T) {
	r := rng.New(8)
	ws := DefaultWeights()
	if _, err := Chain(0, ws, r); err == nil {
		t.Error("Chain(0) should fail")
	}
	if _, err := Independent(-1, ws, r); err == nil {
		t.Error("Independent(-1) should fail")
	}
	if _, err := ForkJoin(0, 1, ws, r); err == nil {
		t.Error("ForkJoin(0,1) should fail")
	}
	if _, err := Layered(1, 1, 2, ws, r); err == nil {
		t.Error("density > 1 should fail")
	}
	if _, err := MontageLike(1, ws, r); err == nil {
		t.Error("MontageLike(1) should fail")
	}
	bad := ws
	bad.MinWeight = -2
	if _, err := Chain(3, bad, r); err == nil {
		t.Error("negative weight spec should fail")
	}
}

func TestIndependentWithWeights(t *testing.T) {
	g, err := IndependentWithWeights([]float64{1, 2, 3}, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 || !g.IsIndependent() {
		t.Error("wrong shape")
	}
	if _, err := IndependentWithWeights(nil, 0, 0); err == nil {
		t.Error("empty weights should fail")
	}
	if _, err := IndependentWithWeights([]float64{-1}, 0, 0); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	g.SetCosts(0.5, 0.25)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Len() || back.EdgeCount() != g.EdgeCount() {
		t.Fatalf("round trip changed shape: %d/%d tasks, %d/%d edges",
			back.Len(), g.Len(), back.EdgeCount(), g.EdgeCount())
	}
	for i := 0; i < g.Len(); i++ {
		a, b := g.Task(i), back.Task(i)
		if a.Weight != b.Weight || a.Checkpoint != b.Checkpoint || a.Recovery != b.Recovery || a.Name != b.Name {
			t.Errorf("task %d changed: %+v vs %+v", i, a, b)
		}
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	// Random layered graphs survive a JSON round trip structurally
	// intact, for many shapes.
	for seed := uint64(0); seed < 12; seed++ {
		r := rng.New(seed)
		layers := 1 + r.IntN(4)
		width := 1 + r.IntN(4)
		g, err := Layered(layers, width, r.Float64(), DefaultWeights(), r)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if back.Len() != g.Len() || back.EdgeCount() != g.EdgeCount() {
			t.Fatalf("seed %d: shape changed", seed)
		}
		aStats, err := g.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		bStats, err := back.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if aStats != bStats {
			t.Errorf("seed %d: stats changed: %v vs %v", seed, aStats, bStats)
		}
	}
}

func TestJSONRejectsCycle(t *testing.T) {
	data := []byte(`{"tasks":[{"weight":1},{"weight":1}],"edges":[[0,1],[1,0]]}`)
	g := New()
	if err := g.UnmarshalJSON(data); err == nil {
		t.Error("cyclic workflow should be rejected")
	}
}

func TestJSONRejectsBadEdge(t *testing.T) {
	data := []byte(`{"tasks":[{"weight":1}],"edges":[[0,3]]}`)
	g := New()
	if err := g.UnmarshalJSON(data); err == nil {
		t.Error("out-of-range edge should be rejected")
	}
}

// TestCloneKeepsPredecessorOrder clones a graph whose edges arrive out
// of source order: the copy's predecessor lists keep the source's order.
func TestCloneKeepsPredecessorOrder(t *testing.T) {
	g := goldenGraphs(t)["hand"]
	if got, want := graphDigest(t, g.Clone()), graphDigest(t, g); got != want {
		t.Errorf("clone digest %q, source %q", got, want)
	}
}

// TestSuccessorsViewSurvivesAddEdge pins the view contract: a list taken
// before an AddEdge keeps reading the list as it was, whether the edge
// grows the run in place at the arena's end, moves it past another
// task's run, or fills room the move left; and appending to a view never
// writes into the graph.
func TestSuccessorsViewSurvivesAddEdge(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.MustAddTask(Task{Weight: 1})
	}
	var views, wants [][]int
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {0, 4}, {1, 5}, {0, 5}} {
		for _, v := range []int{0, 1} {
			views = append(views, g.Successors(v))
			wants = append(wants, slices.Clone(g.Successors(v)))
		}
		views = append(views, g.Predecessors(e[1]))
		wants = append(wants, slices.Clone(g.Predecessors(e[1])))
		g.MustAddEdge(e[0], e[1])
	}
	for i := range views {
		if !slices.Equal(views[i], wants[i]) {
			t.Errorf("view %d reads %v after later edges, want %v", i, views[i], wants[i])
		}
	}
	s := g.Successors(0)
	_ = append(s, 99)
	if got, want := g.Successors(0), []int{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("Successors(0) = %v after appending to a view, want %v", got, want)
	}
	if got, want := g.Predecessors(5), []int{1, 0}; !slices.Equal(got, want) {
		t.Errorf("Predecessors(5) = %v, want %v", got, want)
	}
}

var sinkTask Task

// TestGraphBuildAllocs is the build's allocation budget: a generator
// sizes its arrays once, so Chain's count does not grow with n and
// Layered's grows only with the doublings of an edge estimate it
// misses; Read adds a few dozen at most to decoding the file itself
// (its arenas may outgrow the edge count, as runs round their room up
// to a power of two); Task
// allocates nothing. Chain also allocates little more than it retains.
func TestGraphBuildAllocs(t *testing.T) {
	ws := DefaultWeights()
	for _, n := range []int{1000, 100000} {
		if got := testing.AllocsPerRun(3, func() { _, _ = Chain(n, ws, rng.New(1)) }); got > 12 {
			t.Errorf("Chain(%d): %v allocations, want ≤ 12", n, got)
		}
		if got := testing.AllocsPerRun(3, func() { _, _ = Layered(n/10, 10, 0.3, ws, rng.New(1)) }); got > 24 {
			t.Errorf("Layered(%d, 10): %v allocations, want ≤ 24", n/10, got)
		}
	}

	lay, err := Layered(300, 10, 0.3, ws, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	js, err := lay.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(3, func() {
		data, _ := io.ReadAll(bytes.NewReader(js))
		var ff fileFormat
		_ = json.Unmarshal(data, &ff)
	})
	read := testing.AllocsPerRun(3, func() { _, _ = Read(bytes.NewReader(js)) })
	if read > decode+24 {
		t.Errorf("Read: %v allocations, reading and decoding the file alone %v; want ≤ 24 more", read, decode)
	}

	if got := testing.AllocsPerRun(100, func() { sinkTask = lay.Task(lay.Len() / 2) }); got != 0 {
		t.Errorf("Task: %v allocations, want 0", got)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := Chain(100000, ws, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated, retained := after.TotalAlloc-before.TotalAlloc, after.HeapAlloc-before.HeapAlloc
	runtime.KeepAlive(g)
	if float64(allocated) > 1.25*float64(retained) {
		t.Errorf("Chain(100000) allocated %d bytes to retain %d, want ≤ 1.25×", allocated, retained)
	}
}

// TestConcurrentReaders has goroutines read one graph at once, as the
// DAG portfolio's workers do; run it under -race.
func TestConcurrentReaders(t *testing.T) {
	g, err := Layered(50, 8, 0.3, DefaultWeights(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order, err := g.TopologicalOrder()
			if err != nil || !slices.Equal(order, want) {
				t.Errorf("concurrent TopologicalOrder = %v, %v", order, err)
			}
			var sum float64
			for v := 0; v < g.Len(); v++ {
				sum += g.Task(v).Weight + float64(len(g.Successors(v))+len(g.Predecessors(v))+len(g.Task(v).Name))
			}
			if sum <= 0 {
				t.Error("concurrent reads saw an empty graph")
			}
		}()
	}
	wg.Wait()
}

// SetCosts overwrites every task's checkpoint and recovery cost with the
// given constants, the homogeneous cost model of Proposition 2.
func (g *Graph) SetCosts(checkpoint, recovery float64) {
	for i := range g.ckpt {
		g.ckpt[i] = checkpoint
		g.rec[i] = recovery
	}
}

// IsIndependent reports whether the graph has no edges (the instance class
// of Proposition 2).
func (g *Graph) IsIndependent() bool { return g.edges == 0 }

// TestGraphBytesPerTask pins Chain's heap bytes per task on a 10⁵-task
// chain: three cost columns, the names and their int32 ends, two int32
// runs and two arena slots per task. The budget is computed from the
// slot types, so a 32-bit build checks the same layout with 4-byte
// arena slots (59 B there, 67 on 64-bit). A rise is a regression, and a
// drop should re-pin the lower figure.
func TestGraphBytesPerTask(t *testing.T) {
	const n, runs = 100000, 4
	var g Graph
	want := float64(3*unsafe.Sizeof(g.weight[0]) + uintptr(labelLen("T", n)) + unsafe.Sizeof(g.nameEnd[0]) +
		2*(unsafe.Sizeof(g.succ.runs[0])+unsafe.Sizeof(g.succ.arena[0])))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Chain(n, DefaultWeights(), rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := math.Round(float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)); got != want {
		t.Errorf("Chain: %v bytes/task, budget %v", got, want)
	}
}

// TestSizeLimit pins the int32 bound on synthetic lengths, allocating
// nothing near it: checkSize accepts maxSize of each and refuses one
// more, sized refuses an edge count whose arenas could pass it, and
// Chain refuses a length whose names would.
func TestSizeLimit(t *testing.T) {
	if err := checkSize(maxSize, maxSize, maxSize); err != nil {
		t.Errorf("checkSize at the limit: %v", err)
	}
	for _, c := range [][3]int64{{maxSize + 1, 0, 0}, {0, maxSize + 1, 0}, {0, 0, maxSize + 1}} {
		if err := checkSize(c[0], c[1], c[2]); err == nil {
			t.Errorf("checkSize%v accepted", c)
		}
	}
	if _, err := sized(1, maxSize/4+1, 0); err == nil {
		t.Error("sized accepted arenas that could pass the limit")
	}
	if strconv.IntSize == 64 {
		if _, err := Chain(1<<28, DefaultWeights(), rng.New(1)); err == nil {
			t.Error("Chain accepted 2²⁸ tasks, whose names pass the limit")
		}
	}
}

// TestArenaGrowth pins growth, the count AddEdge checks against the
// limit, to what each push appends, over graphs whose lists move.
func TestArenaGrowth(t *testing.T) {
	r := rng.New(12)
	g := New()
	for i := 0; i < 60; i++ {
		g.MustAddTask(Task{Weight: 1})
	}
	for e := 0; e < 600; e++ {
		from := int(r.Uint64() % 59)
		to := from + 1 + int(r.Uint64()%uint64(59-from))
		if slices.Contains(g.Successors(from), to) {
			continue
		}
		wantSucc := len(g.succ.arena) + g.succ.growth(from)
		wantPred := len(g.pred.arena) + g.pred.growth(to)
		g.MustAddEdge(from, to)
		if len(g.succ.arena) != wantSucc || len(g.pred.arena) != wantPred {
			t.Fatalf("edge %d → %d: arenas %d, %d slots, growth predicted %d, %d",
				from, to, len(g.succ.arena), len(g.pred.arena), wantSucc, wantPred)
		}
	}
}
