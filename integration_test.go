package repro_test

// Cross-module integration tests: each test exercises a full pipeline a
// downstream user would run, stitching several internal packages together
// the way the cmd/ tools and examples do.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/expt"
	"repro/internal/expt/engine"
	"repro/internal/expt/render"
	"repro/internal/failure"
	"repro/internal/heuristic"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestIntegrationEngineSuite runs the whole experiment suite the way
// cmd/chkptbench does — through the parallel engine — and pushes the
// typed results through all three renderers, round-tripping the JSON.
func TestIntegrationEngineSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run skipped with -short")
	}
	cfg := expt.Config{Seed: 7, Quick: true}
	results := engine.Runner{Workers: 4}.RunAll(cfg)
	if err := engine.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(expt.All()) {
		t.Fatalf("engine ran %d experiments, want %d", len(results), len(expt.All()))
	}
	var text, csv, jsonBuf bytes.Buffer
	suites := make([]render.Suite, 0, len(results))
	for _, res := range results {
		if len(res.Tables) == 0 {
			t.Errorf("%s produced no tables", res.Info.ID)
		}
		for _, tb := range res.Tables {
			if err := render.Text(&text, tb); err != nil {
				t.Fatal(err)
			}
			if err := render.CSV(&csv, tb); err != nil {
				t.Fatal(err)
			}
		}
		suites = append(suites, render.Suite{
			ID: res.Info.ID, Title: res.Info.Title, Claim: res.Info.Claim, Tables: res.Tables,
		})
	}
	if text.Len() == 0 || csv.Len() == 0 {
		t.Fatal("renderers produced no output")
	}
	if err := render.JSON(&jsonBuf, suites); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		ID     string `json:"id"`
		Tables []struct {
			Columns []string          `json:"columns"`
			Rows    []json.RawMessage `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	if len(decoded) != len(expt.All()) || decoded[0].ID != "E1" || len(decoded[0].Tables) == 0 {
		t.Fatalf("unexpected JSON shape: %d suites", len(decoded))
	}
	if len(decoded[0].Tables[0].Rows) == 0 {
		t.Fatal("E1's first table decoded with no rows")
	}
}

// TestIntegrationTraceToPlanToSimulation plays the full general-law
// workflow: generate a failure log, fit laws, plan with the fitted
// exponential, and validate the plan's expectation by replaying the
// *same trace* through the simulator.
func TestIntegrationTraceToPlanToSimulation(t *testing.T) {
	r := rng.New(2025)

	// 1. A synthetic cluster log.
	weib, err := failure.NewWeibull(0.8, 40)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(weib, 8, 100000, r)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Round-trip through the CSV format.
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Fit and plan.
	fit, err := tr2.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if fit.Exp.Lambda <= 0 {
		t.Fatal("degenerate fit")
	}
	m, err := expectation.NewModel(fit.Exp.Lambda, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Chain(10, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Replay the plan against the recorded trace.
	segs, err := cp.Segments(plan.CheckpointAfter)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := tr2.Process()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.Run(segs, proc, sim.Options{Downtime: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Makespan <= 0 {
		t.Fatal("replay produced no makespan")
	}
	// The single-replay makespan is one sample; sanity-bound it by the
	// failure-free time and a generous multiple of the expectation.
	ff, err := cp.FailureFreeMakespan(plan.CheckpointAfter)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Makespan < ff {
		t.Errorf("replay %v below failure-free %v", rs.Makespan, ff)
	}
}

// TestIntegrationReductionPipeline goes 3-PARTITION instance → reduced
// scheduling instance → exact solver → plan → simulation, confirming the
// simulated makespan matches K on a yes-instance.
func TestIntegrationReductionPipeline(t *testing.T) {
	r := rng.New(11)
	in, err := partition.GenerateYes(3, 120, r)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := core.BuildReduction(in)
	if err != nil {
		t.Fatal(err)
	}
	yes, grouping, err := ri.DecideByScheduling()
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Fatal("yes-instance decided no")
	}

	// Build the executable plan and simulate it: the mean makespan must
	// approach K = E*.
	plan := grouping.Plan()
	gph, err := dag.IndependentWithWeights(ri.Problem.Weights, ri.Problem.Checkpoint, ri.Problem.Recovery)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(gph); err != nil {
		t.Fatal(err)
	}
	cp, err := core.NewChainProblemOrdered(gph, plan.Order, ri.Problem.Model, ri.Problem.Recovery)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := sim.MonteCarloPlan(cp, plan.CheckpointAfter,
		sim.ExponentialFactory(ri.Problem.Model.Lambda), sim.Options{}, 60000, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if !mc.Makespan.Contains(ri.Bound, 0.999) {
		t.Errorf("simulated %v ± %v vs K = %v",
			mc.Makespan.Mean(), mc.Makespan.CI(0.999), ri.Bound)
	}
}

// TestIntegrationDAGJSONRoundTripSchedule exercises workflow JSON I/O
// into DAG scheduling under both cost models, like cmd/chkptplan.
func TestIntegrationDAGJSONRoundTripSchedule(t *testing.T) {
	r := rng.New(13)
	g, err := dag.MontageLike(5, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := dag.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.02, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range []core.CostModel{core.LastTaskCosts{}, core.LiveSetCosts{}} {
		res, err := core.SolveDAG(g2, m, cm)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name(), err)
		}
		if err := res.Plan().Validate(g2); err != nil {
			t.Errorf("%s: %v", cm.Name(), err)
		}
	}
}

// TestIntegrationWeibullPlanningLoop runs the extension-3 loop: fit a
// Weibull trace, build both exponential-fit and Weibull-aware placements,
// and verify the simulator ranks both far ahead of never-checkpointing.
func TestIntegrationWeibullPlanningLoop(t *testing.T) {
	r := rng.New(17)
	weib, err := failure.NewWeibull(0.7, 30/math.Gamma(1+1/0.7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	weights := make([]float64, n)
	costs := make([]float64, n)
	for i := range weights {
		weights[i] = 2
		costs[i] = 0.3
	}
	mFit, err := expectation.NewModel(1.0/30, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.ChainProblem{Weights: weights, Ckpt: costs, Rec: costs, Model: mFit}
	expPlan, err := core.SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	surv, err := heuristic.FreshPlatformSurvival(weib, 1)
	if err != nil {
		t.Fatal(err)
	}
	weibPlan, err := heuristic.MaxSavedWorkDP(weights, 0.3, surv)
	if err != nil {
		t.Fatal(err)
	}
	never := make([]bool, n)
	never[n-1] = true

	factory := sim.SuperposedFactory(weib, 1, failure.RejuvenateFailedOnly)
	simulate := func(ck []bool) float64 {
		segs, err := cp.Segments(ck)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.MonteCarlo(segs, factory, sim.Options{Downtime: 0.2}, 20000, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan.Mean()
	}
	eExp := simulate(expPlan.CheckpointAfter)
	eWeib := simulate(weibPlan.CheckpointAfter)
	eNever := simulate(never)
	if eNever < eExp || eNever < eWeib {
		t.Errorf("never-checkpoint (%v) should lose to planned placements (%v, %v)", eNever, eExp, eWeib)
	}
	if ratio := eWeib / eExp; ratio > 1.15 || ratio < 0.85 {
		t.Errorf("weibull-aware vs exponential-fit ratio %v out of plausible band", ratio)
	}
}

// TestIntegrationBoundedBudgetFlow: a user with limited checkpoint
// storage plans with a budget and verifies by simulation.
func TestIntegrationBoundedBudgetFlow(t *testing.T) {
	r := rng.New(19)
	g, err := dag.Chain(15, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget3, err := core.SolveChainDPBounded(cp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(budget3.Positions()); got > 3 {
		t.Fatalf("budget violated: %d checkpoints", got)
	}
	mc, err := sim.MonteCarloPlan(cp, budget3.CheckpointAfter,
		sim.ExponentialFactory(m.Lambda), sim.Options{}, 40000, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	if !mc.Makespan.Contains(budget3.Expected, 0.999) {
		t.Errorf("simulated %v ± %v vs analytical %v",
			mc.Makespan.Mean(), mc.Makespan.CI(0.999), budget3.Expected)
	}
}
