package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// TestLiveSetDPMatchesGeneric pins the incremental live-set DP (and its
// work-only pruning) to the generic per-pair rescanning DP on random
// DAGs: same placements up to ulp-level ties, and values — both
// re-derived through the cost model's own arithmetic — equal to
// ulp-scale.
func TestLiveSetDPMatchesGeneric(t *testing.T) {
	r := rng.New(88)
	builders := []func(s *rng.Stream) (*dag.Graph, error){
		func(s *rng.Stream) (*dag.Graph, error) { return dag.Layered(4, 5, 0.5, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.ForkJoin(3, 4, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.MontageLike(7, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.Chain(25, dag.DefaultWeights(), s) },
	}
	lambdas := []float64{1e-6, 0.02, 0.3}
	for bi, build := range builders {
		for trial := 0; trial < 4; trial++ {
			g, err := build(r.Split())
			if err != nil {
				t.Fatal(err)
			}
			m := expectation.Model{Lambda: lambdas[trial%len(lambdas)], Downtime: r.Range(0, 1)}
			order, err := g.TopologicalOrder()
			if err != nil {
				t.Fatal(err)
			}
			lv := LiveSetCosts{R0: r.Range(0, 1)}
			next, err := solveOrderDPLiveSet(g, order, m, lv, &orderScratch{}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			fast := orderResult(g, order, m, lv, next, &orderScratch{})
			slow := genericOrderResult(g, order, m, lv)
			if numeric.RelErr(fast.Expected, slow.Expected) > 1e-11 {
				t.Fatalf("builder %d λ=%v: live-set %v vs generic %v", bi, m.Lambda, fast.Expected, slow.Expected)
			}
			same := true
			for i := range fast.CheckpointAfter {
				if fast.CheckpointAfter[i] != slow.CheckpointAfter[i] {
					same = false
				}
			}
			if same && fast.Expected != slow.Expected {
				t.Fatalf("builder %d: same placement but Expected %v vs %v", bi, fast.Expected, slow.Expected)
			}
		}
	}
}

// genericOrderResult is the result of the whole-order reference
// recurrence's plan.
func genericOrderResult(g *dag.Graph, order []int, m expectation.Model, cm CostModel) DAGResult {
	next := make([]int, len(order))
	for _, sg := range referenceSuffix(g, order, m, cm, 0, 0) {
		next[sg.Start] = sg.End
	}
	return orderResult(g, order, m, cm, next, &orderScratch{})
}

// TestSolveOrderDPDispatch ensures the public entry point routes each
// cost model to an equivalent solver: results agree with the generic DP
// regardless of the acceleration taken.
func TestSolveOrderDPDispatch(t *testing.T) {
	r := rng.New(99)
	g, err := dag.Layered(4, 4, 0.5, dag.DefaultWeights(), r.Split())
	if err != nil {
		t.Fatal(err)
	}
	m := expectation.Model{Lambda: 0.05, Downtime: 0.5}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range []CostModel{LastTaskCosts{R0: 0.2}, LiveSetCosts{R0: 0.2}} {
		got, err := SolveOrderDP(g, order, m, cm)
		if err != nil {
			t.Fatal(err)
		}
		want := genericOrderResult(g, order, m, cm)
		if numeric.RelErr(got.Expected, want.Expected) > 1e-11 {
			t.Errorf("%s: dispatched %v vs generic %v", cm.Name(), got.Expected, want.Expected)
		}
	}
}
