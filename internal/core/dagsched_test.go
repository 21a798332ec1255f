package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/numeric"
	"repro/internal/rng"
)

func TestPlanValidate(t *testing.T) {
	g := dag.New()
	a := g.MustAddTask(dag.Task{Weight: 1})
	b := g.MustAddTask(dag.Task{Weight: 1})
	g.MustAddEdge(a, b)

	good, err := NewPlan([]int{a, b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(g); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if got := good.Checkpoints(); len(got) != 2 {
		t.Errorf("checkpoints = %v", got)
	}

	rev := Plan{Order: []int{b, a}, CheckpointAfter: []bool{false, true}}
	if err := rev.Validate(g); err == nil {
		t.Error("dependence-violating plan accepted")
	}
	dup := Plan{Order: []int{a, a}, CheckpointAfter: []bool{false, true}}
	if err := dup.Validate(g); err == nil {
		t.Error("duplicate task accepted")
	}
	noFinal := Plan{Order: []int{a, b}, CheckpointAfter: []bool{true, false}}
	if err := noFinal.Validate(g); err == nil {
		t.Error("missing final checkpoint accepted")
	}
	short := Plan{Order: []int{a}, CheckpointAfter: []bool{true}}
	if err := short.Validate(g); err == nil {
		t.Error("incomplete plan accepted")
	}
	if _, err := NewPlan(nil); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := NewPlan([]int{0}, 5); err == nil {
		t.Error("out-of-range checkpoint position accepted")
	}
}

func TestEvaluatePlanMatchesChainDP(t *testing.T) {
	// On a chain, EvaluatePlan of the DP's plan equals the DP value.
	r := rng.New(31)
	g, err := dag.Chain(8, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModelT(t, 0.05, 0.2)
	cp, order, err := NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Order: order, CheckpointAfter: res.CheckpointAfter}
	e, err := EvaluatePlan(m, g, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(e, res.Expected, 1e-12) {
		t.Errorf("EvaluatePlan %v ≠ DP %v", e, res.Expected)
	}
}

func TestSolveOrderDPChainEquivalence(t *testing.T) {
	// With LastTaskCosts, SolveOrderDP on the chain order must equal
	// SolveChainDP.
	r := rng.New(32)
	g, err := dag.Chain(10, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModelT(t, 0.03, 0.1)
	cp, order, err := NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	chainRes, err := SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	dagRes, err := SolveOrderDP(g, order, m, LastTaskCosts{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(chainRes.Expected, dagRes.Expected, 1e-12) {
		t.Errorf("chain DP %v ≠ order DP %v", chainRes.Expected, dagRes.Expected)
	}
}

func TestSolveDAGValidPlans(t *testing.T) {
	r := rng.New(33)
	m := mustModelT(t, 0.02, 0.1)
	graphs := map[string]*dag.Graph{}
	fj, err := dag.ForkJoin(3, 2, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	graphs["forkjoin"] = fj
	lay, err := dag.Layered(3, 3, 0.4, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	graphs["layered"] = lay
	mon, err := dag.MontageLike(4, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	graphs["montage"] = mon

	for name, g := range graphs {
		for _, cm := range []CostModel{LastTaskCosts{}, LiveSetCosts{}} {
			res, err := SolveDAG(g, m, cm)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cm.Name(), err)
			}
			if err := res.Plan().Validate(g); err != nil {
				t.Errorf("%s/%s: invalid plan: %v", name, cm.Name(), err)
			}
			if res.Expected <= 0 || res.Strategy == "" {
				t.Errorf("%s/%s: result %+v", name, cm.Name(), res)
			}
		}
	}
}

func TestSolveDAGExhaustiveDominates(t *testing.T) {
	// The exhaustive solver over all linearizations is at least as good
	// as the heuristic portfolio.
	r := rng.New(34)
	g, err := dag.ForkJoin(2, 2, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModelT(t, 0.05, 0.1)
	for _, cm := range []CostModel{LastTaskCosts{}, LiveSetCosts{}} {
		heur, err := SolveDAG(g, m, cm)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := SolveDAGExhaustive(g, m, cm, 0)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Expected > heur.Expected+1e-9 {
			t.Errorf("%s: exhaustive %v worse than heuristic %v", cm.Name(), exact.Expected, heur.Expected)
		}
		if err := exact.Plan().Validate(g); err != nil {
			t.Errorf("%s: exhaustive plan invalid: %v", cm.Name(), err)
		}
	}
}

func TestLiveSetCostsSemantics(t *testing.T) {
	// Chain a→b: after executing a (position 0), a's output is live;
	// after b (sink), b is live but a is not.
	g := dag.New()
	a := g.MustAddTask(dag.Task{Weight: 1, Checkpoint: 10, Recovery: 100})
	b := g.MustAddTask(dag.Task{Weight: 1, Checkpoint: 20, Recovery: 200})
	g.MustAddEdge(a, b)
	order := []int{a, b}
	lv := LiveSetCosts{}
	if got := lv.CheckpointCost(g, order, 0, 0); got != 10 {
		t.Errorf("ckpt after a = %v, want 10", got)
	}
	if got := lv.CheckpointCost(g, order, 0, 1); got != 20 {
		t.Errorf("ckpt after b = %v, want 20 (a retired)", got)
	}
	if got := lv.RecoveryCost(g, order, 1); got != 200 {
		t.Errorf("recovery after b = %v, want 200", got)
	}

	// Fork a→(b, c): after a and b (position 1), a is still live (c
	// pending) and b is a sink → both live.
	g2 := dag.New()
	a2 := g2.MustAddTask(dag.Task{Weight: 1, Checkpoint: 1, Recovery: 1})
	b2 := g2.MustAddTask(dag.Task{Weight: 1, Checkpoint: 2, Recovery: 2})
	c2 := g2.MustAddTask(dag.Task{Weight: 1, Checkpoint: 4, Recovery: 4})
	g2.MustAddEdge(a2, b2)
	g2.MustAddEdge(a2, c2)
	order2 := []int{a2, b2, c2}
	if got := lv.CheckpointCost(g2, order2, 0, 1); got != 1+2 {
		t.Errorf("fork ckpt after b = %v, want 3", got)
	}
	if got := lv.CheckpointCost(g2, order2, 0, 2); got != 2+4 {
		t.Errorf("fork ckpt after c = %v, want 6 (a retired, b+c sinks)", got)
	}
}

func TestLastTaskCostsSemantics(t *testing.T) {
	g := dag.New()
	a := g.MustAddTask(dag.Task{Weight: 1, Checkpoint: 3, Recovery: 5})
	b := g.MustAddTask(dag.Task{Weight: 1, Checkpoint: 7, Recovery: 9})
	g.MustAddEdge(a, b)
	lc := LastTaskCosts{R0: 2}
	order := []int{a, b}
	if lc.CheckpointCost(g, order, 0, 1) != 7 {
		t.Error("last-task checkpoint cost wrong")
	}
	if lc.RecoveryCost(g, order, 0) != 5 {
		t.Error("last-task recovery cost wrong")
	}
	if lc.InitialRecovery() != 2 {
		t.Error("initial recovery wrong")
	}
}

func TestStrategiesProduceValidOrders(t *testing.T) {
	r := rng.New(35)
	g, err := dag.Layered(3, 4, 0.5, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range DefaultStrategies() {
		order, err := s.Order(g)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		plan, err := NewPlan(order)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := plan.Validate(g); err != nil {
			t.Errorf("%s produced invalid order: %v", s.Name, err)
		}
	}
}

func TestSolveDAGErrors(t *testing.T) {
	m := mustModelT(t, 0.1, 0)
	if _, err := SolveDAG(dag.New(), m, LastTaskCosts{}); err == nil {
		t.Error("empty graph should fail")
	}
	g := dag.New()
	g.MustAddTask(dag.Task{Weight: 1})
	if _, err := SolveOrderDP(g, nil, m, LastTaskCosts{}); err == nil {
		t.Error("empty order should fail")
	}
	if _, err := SolveOrderDP(g, []int{0, 0}, m, LastTaskCosts{}); err == nil {
		t.Error("wrong-length order should fail")
	}
}
