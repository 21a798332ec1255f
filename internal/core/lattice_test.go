package core

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// randomSmallGraph draws one of the generator families at an
// exhaustively solvable size.
func randomSmallGraph(t *testing.T, r *rng.Stream) *dag.Graph {
	t.Helper()
	var g *dag.Graph
	var err error
	switch r.IntN(5) {
	case 0:
		g, err = dag.Chain(2+r.IntN(6), dag.DefaultWeights(), r)
	case 1:
		g, err = dag.ForkJoin(2, 2, dag.DefaultWeights(), r)
	case 2:
		g, err = dag.GNP(4+r.IntN(4), 0.15+0.5*r.Float64(), dag.DefaultWeights(), r)
	case 3:
		g, err = dag.IntreeFromChains(2+r.IntN(2), 1+r.IntN(2), dag.DefaultWeights(), r)
	default:
		g, err = dag.Independent(2+r.IntN(4), dag.DefaultWeights(), r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLatticeMatchesExhaustiveProperty is the acceptance pin: on
// randomized small DAGs across both order-free cost models, the
// lattice DP returns a bit-identical optimum to the streaming
// factorial oracle, plus a valid witness order whose own per-order DP
// reproduces the optimum.
func TestLatticeMatchesExhaustiveProperty(t *testing.T) {
	r := rng.New(71)
	models := []expectation.Model{
		{Lambda: 0.003, Downtime: 0.2},
		{Lambda: 0.05, Downtime: 1},
		{Lambda: 0.4, Downtime: 0},
	}
	for trial := 0; trial < 60; trial++ {
		g := randomSmallGraph(t, r)
		m := models[trial%len(models)]
		r0 := 0.0
		if trial%2 == 1 {
			r0 = r.Range(0, 2)
		}
		for _, cm := range []CostModel{LastTaskCosts{R0: r0}, LiveSetCosts{R0: r0}} {
			exact, err := SolveDAGExhaustive(g, m, cm, 0)
			if err != nil {
				t.Fatalf("trial %d %s: exhaustive: %v", trial, cm.Name(), err)
			}
			lattice, err := SolveDAGLattice(g, m, cm, Options{})
			if err != nil {
				t.Fatalf("trial %d %s: lattice: %v", trial, cm.Name(), err)
			}
			if lattice.Expected != exact.Expected {
				t.Fatalf("trial %d %s (n=%d, λ=%g): lattice %.17g ≠ exhaustive %.17g",
					trial, cm.Name(), g.Len(), m.Lambda, lattice.Expected, exact.Expected)
			}
			if err := lattice.Plan().Validate(g); err != nil {
				t.Fatalf("trial %d %s: invalid witness: %v", trial, cm.Name(), err)
			}
			// The witness order's own optimal placement cannot beat the
			// global optimum, and the lattice's placement on that order is
			// optimal for it — so the per-order DP must agree to rounding.
			onWitness, err := SolveOrderDP(g, lattice.Order, m, cm)
			if err != nil {
				t.Fatal(err)
			}
			if numeric.RelErr(onWitness.Expected, lattice.Expected) > 1e-11 {
				t.Fatalf("trial %d %s: witness order DP %v vs lattice %v",
					trial, cm.Name(), onWitness.Expected, lattice.Expected)
			}
			// And the heuristic portfolio never beats the exact optimum.
			heur, err := SolveDAG(g, m, cm)
			if err != nil {
				t.Fatal(err)
			}
			if lattice.Expected > heur.Expected*(1+1e-12) {
				t.Fatalf("trial %d %s: lattice %v worse than portfolio %v",
					trial, cm.Name(), lattice.Expected, heur.Expected)
			}
		}
	}
}

// TestLatticeChainDegenerate pins the chain special case against the
// Proposition 3 chain DP: one linearization, so the lattice value must
// match SolveChainDP to rounding and the placement must be identical.
func TestLatticeChainDegenerate(t *testing.T) {
	r := rng.New(72)
	for _, n := range []int{1, 2, 7, 16} {
		g, err := dag.Chain(n, dag.DefaultWeights(), r)
		if err != nil {
			t.Fatal(err)
		}
		m := mustModelT(t, 0.04, 0.5)
		cp, order, err := NewChainProblem(g, m, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		chainRes, err := SolveChainDP(cp)
		if err != nil {
			t.Fatal(err)
		}
		lattice, err := SolveDAGLattice(g, m, LastTaskCosts{R0: 0.7}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if numeric.RelErr(lattice.Expected, chainRes.Expected) > 1e-12 {
			t.Fatalf("n=%d: lattice %v vs chain DP %v", n, lattice.Expected, chainRes.Expected)
		}
		for i := range order {
			if lattice.Order[i] != order[i] {
				t.Fatalf("n=%d: lattice order %v is not the chain", n, lattice.Order)
			}
			if lattice.CheckpointAfter[i] != chainRes.CheckpointAfter[i] {
				t.Fatalf("n=%d: placements differ at %d: %v vs %v",
					n, i, lattice.CheckpointAfter, chainRes.CheckpointAfter)
			}
		}
	}
}

// TestLatticeWorkerInvariance pins the determinism contract: value,
// witness, and statistics are identical for every worker count, with
// and without the incumbent.
func TestLatticeWorkerInvariance(t *testing.T) {
	r := rng.New(73)
	g, err := dag.GNP(10, 0.3, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModelT(t, 0.02, 0.5)
	for _, cm := range []CostModel{LastTaskCosts{}, LiveSetCosts{}} {
		for _, ub := range []float64{0, math.Inf(1)} {
			noInc := ub != 0
			base, baseStats, err := SolveDAGLatticeStats(g, m, cm, Options{Workers: 1, IncumbentUB: ub})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 5} {
				res, stats, err := SolveDAGLatticeStats(g, m, cm, Options{Workers: workers, IncumbentUB: ub})
				if err != nil {
					t.Fatal(err)
				}
				if res.Expected != base.Expected {
					t.Errorf("%s workers=%d noInc=%v: value %v ≠ serial %v",
						cm.Name(), workers, noInc, res.Expected, base.Expected)
				}
				if stats != baseStats {
					t.Errorf("%s workers=%d noInc=%v: stats %+v ≠ serial %+v",
						cm.Name(), workers, noInc, stats, baseStats)
				}
				for i := range base.Order {
					if res.Order[i] != base.Order[i] || res.CheckpointAfter[i] != base.CheckpointAfter[i] {
						t.Fatalf("%s workers=%d: witness differs", cm.Name(), workers)
					}
				}
			}
			if noInc && base.Expected != func() float64 {
				inc, _, err := SolveDAGLatticeStats(g, m, cm, Options{})
				if err != nil {
					t.Fatal(err)
				}
				return inc.Expected
			}() {
				t.Errorf("%s: pruned and unpruned optima differ", cm.Name())
			}
		}
	}
}

// TestLatticePruningEffectiveAndSound: the incumbent-seeded search must
// expand no more states than the unpruned one and return the same
// value.
func TestLatticePruningEffectiveAndSound(t *testing.T) {
	r := rng.New(74)
	g, err := dag.IntreeFromChains(3, 4, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModelT(t, 0.01, 0.3)
	full, fullStats, err := SolveDAGLatticeStats(g, m, LastTaskCosts{}, Options{IncumbentUB: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	pruned, prunedStats, err := SolveDAGLatticeStats(g, m, LastTaskCosts{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Expected != pruned.Expected {
		t.Fatalf("pruning changed the optimum: %v vs %v", full.Expected, pruned.Expected)
	}
	if prunedStats.Transitions > fullStats.Transitions {
		t.Errorf("pruned search evaluated more transitions (%d) than unpruned (%d)",
			prunedStats.Transitions, fullStats.Transitions)
	}
	if prunedStats.Incumbent <= 0 {
		t.Errorf("incumbent not recorded: %+v", prunedStats)
	}
}

// TestLatticeStateSpaceVsFactorial spot-checks the whole point: on an
// in-tree the lattice stores exponentially fewer states than there are
// linearizations.
func TestLatticeStateSpaceVsFactorial(t *testing.T) {
	g, err := dag.IntreeFromChains(3, 4, dag.DefaultWeights(), rng.New(75))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := g.Lattice()
	if err != nil {
		t.Fatal(err)
	}
	orders := lat.CountLinearExtensions()
	_, stats, err := SolveDAGLatticeStats(g, mustModelT(t, 0.02, 0.5), LastTaskCosts{}, Options{IncumbentUB: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if float64(stats.States)*100 > orders {
		t.Errorf("states %d not ≪ linear extensions %.0f", stats.States, orders)
	}
}

// TestLatticeInfiniteOptimum pins the overflow regime: when every
// schedule's expectation overflows to +Inf (λ·W past numeric.MaxExpArg),
// the lattice solver must still return a valid witness with Expected
// +Inf — matching the oracle, which reports +Inf with no improving
// order — instead of pruning everything away or rewriting +Inf to 0.
func TestLatticeInfiniteOptimum(t *testing.T) {
	g := dag.New()
	a := g.MustAddTask(dag.Task{Weight: 1e5, Checkpoint: 1, Recovery: 1})
	b := g.MustAddTask(dag.Task{Weight: 2e5, Checkpoint: 1, Recovery: 1})
	g.MustAddEdge(a, b)
	m := mustModelT(t, 0.02, 1) // λ·W ≈ 2000 ≫ MaxExpArg
	for _, cm := range []CostModel{LastTaskCosts{}, LiveSetCosts{}} {
		exact, err := SolveDAGExhaustive(g, m, cm, 0)
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", cm.Name(), err)
		}
		if !math.IsInf(exact.Expected, 1) {
			t.Fatalf("%s: exhaustive optimum = %v, want +Inf", cm.Name(), exact.Expected)
		}
		for _, ub := range []float64{0, math.Inf(1)} {
			noInc := ub != 0
			lattice, err := SolveDAGLattice(g, m, cm, Options{IncumbentUB: ub})
			if err != nil {
				t.Fatalf("%s noInc=%v: lattice: %v", cm.Name(), noInc, err)
			}
			if !math.IsInf(lattice.Expected, 1) {
				t.Errorf("%s noInc=%v: lattice optimum = %v, want +Inf", cm.Name(), noInc, lattice.Expected)
			}
			if err := lattice.Plan().Validate(g); err != nil {
				t.Errorf("%s noInc=%v: witness invalid: %v", cm.Name(), noInc, err)
			}
		}
	}
}

// TestLatticeGuards covers the error surface: a nil cost model,
// empty and oversized graphs, and the state budget.
func TestLatticeGuards(t *testing.T) {
	m := mustModelT(t, 0.05, 0)
	if _, err := SolveDAGLattice(dag.New(), m, LastTaskCosts{}, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	g, err := dag.Chain(4, dag.DefaultWeights(), rng.New(76))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveDAGLattice(g, m, nil, Options{}); err == nil {
		t.Error("nil cost model accepted")
	}
	big, err := dag.Independent(65, dag.DefaultWeights(), rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveDAGLattice(big, m, LastTaskCosts{}, Options{}); err == nil {
		t.Error("65-task graph accepted")
	}
	wide, err := dag.Independent(12, dag.DefaultWeights(), rng.New(78))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveDAGLattice(wide, m, LastTaskCosts{}, Options{MaxStates: 50, IncumbentUB: math.Inf(1)}); err == nil {
		t.Error("state budget not enforced")
	}
}

// TestSolveDAGWithParallelMatchesSerial pins the parallel portfolio
// against the serial one bit-for-bit, including the strategy label.
func TestSolveDAGWithParallelMatchesSerial(t *testing.T) {
	r := rng.New(79)
	g, err := dag.Layered(4, 4, 0.4, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModelT(t, 0.02, 1)
	for _, cm := range []CostModel{LastTaskCosts{}, LiveSetCosts{}} {
		serial, err := SolveDAG(g, m, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := SolveDAGWith(g, m, cm, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Expected != serial.Expected || par.Strategy != serial.Strategy {
				t.Errorf("%s workers=%d: (%v, %s) ≠ serial (%v, %s)",
					cm.Name(), workers, par.Expected, par.Strategy, serial.Expected, serial.Strategy)
			}
		}
	}
}

// TestExhaustiveStreamingMatchesLimit pins limit semantics after the
// streaming rewrite: limit 1 solves exactly the first enumerated
// order.
func TestExhaustiveStreamingMatchesLimit(t *testing.T) {
	g, err := dag.ForkJoin(2, 2, dag.DefaultWeights(), rng.New(80))
	if err != nil {
		t.Fatal(err)
	}
	m := mustModelT(t, 0.05, 0.1)
	first := g.AllTopologicalOrders(1)[0]
	limited, err := SolveDAGExhaustive(g, m, LastTaskCosts{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SolveOrderDP(g, first, m, LastTaskCosts{})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(limited.Expected, direct.Expected) > 1e-12 {
		t.Errorf("limit-1 exhaustive %v ≠ first-order DP %v", limited.Expected, direct.Expected)
	}
	if math.IsInf(limited.Expected, 1) {
		t.Error("degenerate limited solve")
	}
}
