package core

import (
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
)

// readyListOrderSorted is the pre-heap reference: re-sort the whole
// ready list at every step and take its head. The heap version must
// reproduce its output exactly (both pop the unique minimum of a total
// order).
func readyListOrderSorted(g *dag.Graph, less func(g *dag.Graph, a, b int) bool) ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.Predecessors(i))
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool { return less(g, ready[a], ready[b]) })
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range g.Successors(v) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, dag.ErrCycle
	}
	return order, nil
}

func TestReadyQueueMatchesSortedReference(t *testing.T) {
	r := rng.New(77)
	builders := []func(s *rng.Stream) (*dag.Graph, error){
		func(s *rng.Stream) (*dag.Graph, error) { return dag.Layered(5, 6, 0.4, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.ForkJoin(4, 5, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.Chain(20, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.MontageLike(8, dag.DefaultWeights(), s) },
	}
	strategies := []LinearizationStrategy{HeaviestFirstStrategy(), CheapCheckpointFirstStrategy()}
	for bi, build := range builders {
		for trial := 0; trial < 5; trial++ {
			g, err := build(r.Split())
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range strategies {
				got, err := st.Order(g)
				if err != nil {
					t.Fatal(err)
				}
				var less func(g *dag.Graph, a, b int) bool
				switch st.Name {
				case "heaviest-first":
					less = func(g *dag.Graph, a, b int) bool {
						if ta, tb := g.Task(a), g.Task(b); ta.Weight != tb.Weight {
							return ta.Weight > tb.Weight
						}
						return a < b
					}
				case "cheap-ckpt-first":
					less = func(g *dag.Graph, a, b int) bool {
						if ta, tb := g.Task(a), g.Task(b); ta.Checkpoint != tb.Checkpoint {
							return ta.Checkpoint < tb.Checkpoint
						}
						return a < b
					}
				}
				want, err := readyListOrderSorted(g, less)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("builder %d %s: length %d vs %d", bi, st.Name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("builder %d %s: order differs at %d: %v vs %v", bi, st.Name, i, got, want)
					}
				}
			}
		}
	}
}
