// Package repro reproduces, as a production-quality Go library, the system
// described in:
//
//	Yves Robert, Frédéric Vivien, Dounia Zaidouni.
//	"On the complexity of scheduling checkpoints for computational
//	workflows." INRIA Research Report RR-7907 (DSN 2012 companion), 2012.
//
// The paper studies the joint problem of ordering the tasks of a workflow
// DAG and deciding after which tasks to checkpoint, under Exponential
// failures with downtime and recovery, so as to minimize the expected
// makespan. Its three results — the exact expectation formula
// (Proposition 1), strong NP-completeness via 3-PARTITION
// (Proposition 2), and the O(n²) optimal dynamic program for linear
// chains (Proposition 3) — are all implemented, exhaustively tested, and
// numerically validated here, together with the three extensions the
// paper sketches (content-dependent checkpoint costs, moldable tasks,
// general failure laws).
//
// This root package is a thin facade over the implementation packages:
//
//   - internal/expectation — Proposition 1 and the comparator formulas
//   - internal/core        — the schedulers (chain DP, independent tasks,
//     DAG linearization + placement, 3-PARTITION reduction)
//   - internal/dag         — the workflow graph model and generators
//   - internal/sim         — the discrete-event execution simulator
//   - internal/failure     — failure laws and platform processes
//   - internal/platform, internal/moldable, internal/heuristic,
//     internal/partition, internal/trace, internal/expt — substrates and
//     the experiment harness (see DESIGN.md)
//
// Quick start (see examples/quickstart for the runnable version):
//
//	model, _ := repro.NewModel(1.0/100, 1.0) // λ = 1/100h, D = 1h
//	g := repro.NewGraph()
//	... add tasks and edges ...
//	plan, _ := repro.OptimalChainPlan(g, model, 0)
//	fmt.Println(plan.Expected, plan.Positions())
package repro

import (
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

// Model carries the failure environment: the platform failure rate λ and
// the downtime D. It is internal/expectation.Model re-exported.
type Model = expectation.Model

// NewModel validates and builds a Model.
func NewModel(lambda, downtime float64) (Model, error) {
	return expectation.NewModel(lambda, downtime)
}

// Graph is the workflow DAG (internal/dag.Graph re-exported).
type Graph = dag.Graph

// Task is a workflow task (internal/dag.Task re-exported).
type Task = dag.Task

// NewGraph returns an empty workflow graph.
func NewGraph() *Graph { return dag.New() }

// Plan is an execution order plus checkpoint decisions
// (internal/core.Plan re-exported).
type Plan = core.Plan

// ChainResult is the output of the chain optimizers
// (internal/core.ChainResult re-exported).
type ChainResult = core.ChainResult

// ExpectedTime returns E[T(W,C,D,R,λ)], the Proposition 1 closed form.
func ExpectedTime(m Model, w, c, r float64) float64 {
	return m.ExpectedTime(w, c, r)
}

// OptimalChainPlan computes the optimal checkpoint placement for a
// workflow whose DAG is a linear chain, using Algorithm 1 (Proposition 3).
// initialRecovery is R₀, the cost of restarting from the initial state
// before any checkpoint exists (commonly 0).
//
// The solver is a certifier-gated portfolio: instances whose
// segment-cost matrix passes the quadrangle-inequality certificate run
// a totally-monotone-matrix DP in O(n log n) oracle evaluations —
// million-task chains solve in well under a second — and everything
// else takes the pruned kernel scan. Both arms are exact; use
// OptimalChainPlanStats to see which one ran.
func OptimalChainPlan(g *Graph, m Model, initialRecovery float64) (ChainResult, error) {
	cp, _, err := core.NewChainProblem(g, m, initialRecovery)
	if err != nil {
		return ChainResult{}, err
	}
	return core.SolveChainDP(cp)
}

// DPStats reports a chain solve's dispatched arm and oracle-evaluation
// count (internal/core.DPStats re-exported).
type DPStats = core.DPStats

// OptimalChainPlanStats is OptimalChainPlan, additionally reporting
// which solver arm the portfolio dispatched to ("monotone" on
// quadrangle-certified instances, "kernel" otherwise) and how many
// cost-oracle evaluations it made.
func OptimalChainPlanStats(g *Graph, m Model, initialRecovery float64) (ChainResult, DPStats, error) {
	cp, _, err := core.NewChainProblem(g, m, initialRecovery)
	if err != nil {
		return ChainResult{}, DPStats{}, err
	}
	return core.SolveChainDPStats(cp)
}

// ScheduleDAG schedules a general workflow DAG: it linearizes the graph
// with a portfolio of heuristics (optimal ordering is strongly NP-hard by
// Proposition 2) and runs the exact per-order placement DP, returning the
// best schedule found.
func ScheduleDAG(g *Graph, m Model) (core.DAGResult, error) {
	return core.SolveDAG(g, m, core.LastTaskCosts{})
}

// ScheduleDAGExact computes the globally optimal order-plus-placement
// schedule by dynamic programming over the DAG's downset lattice —
// exponential in the graph's width rather than factorial in its size,
// which reaches ~20–30-task workflows where order enumeration is
// hopeless. The NP-hardness of Proposition 2 caps how far any exact
// method scales: very wide graphs trip the built-in 20M-state budget
// (roughly a couple of GB of tables; size core.Options.MaxStates to
// your memory if you need more) and return an error — fall back to
// ScheduleDAG there.
func ScheduleDAGExact(g *Graph, m Model) (core.DAGResult, error) {
	return core.SolveDAGLattice(g, m, core.LastTaskCosts{}, core.Options{MaxStates: 20_000_000})
}

// EvaluatePlan returns the exact expected makespan of an explicit plan.
func EvaluatePlan(m Model, g *Graph, plan Plan, initialRecovery float64) (float64, error) {
	return core.EvaluatePlan(m, g, plan, initialRecovery)
}

// Simulate Monte-Carlo-simulates a chain plan under Exponential failures
// with the model's rate and downtime, returning the mean simulated
// makespan and its 99% confidence half-width.
func Simulate(g *Graph, m Model, checkpointAfter []bool, runs int, seed uint64) (mean, ci float64, err error) {
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return 0, 0, err
	}
	res, err := sim.MonteCarloPlan(cp, checkpointAfter, sim.ExponentialFactory(m.Lambda), sim.Options{}, runs, rng.New(seed))
	if err != nil {
		return 0, 0, err
	}
	return res.Makespan.Mean(), res.Makespan.CI(0.99), nil
}

// PlanReport bundles the analytical assessment of a chain plan: expected
// makespan, standard deviation, failure-free makespan, expected waste,
// and the segment decomposition (internal/sim.PlanReport re-exported).
type PlanReport = sim.PlanReport

// ReportChainPlan assembles the analytical report for a checkpoint
// placement on a chain workflow: exact expectation (Proposition 1 per
// segment) plus the exact variance from the second-moment extension.
func ReportChainPlan(g *Graph, m Model, checkpointAfter []bool, initialRecovery float64) (PlanReport, error) {
	cp, _, err := core.NewChainProblem(g, m, initialRecovery)
	if err != nil {
		return PlanReport{}, err
	}
	return sim.Report(cp, checkpointAfter)
}

// OptimalChainPlanBounded is OptimalChainPlan under a checkpoint budget:
// the optimal placement using at most maxCheckpoints checkpoints.
func OptimalChainPlanBounded(g *Graph, m Model, initialRecovery float64, maxCheckpoints int) (ChainResult, error) {
	cp, _, err := core.NewChainProblem(g, m, initialRecovery)
	if err != nil {
		return ChainResult{}, err
	}
	return core.SolveChainDPBounded(cp, maxCheckpoints)
}

// ExecReport summarizes an ExecutePlan campaign: the Proposition-1
// planned expectation of the plan, the realized mean makespan over the
// executed runs with its 99% confidence half-width, and the mean number
// of failures survived per run.
type ExecReport struct {
	// Planned is the analytical expected makespan of the plan.
	Planned float64
	// Realized is the mean makespan over the executed runs.
	Realized float64
	// CI is the 99% confidence half-width of Realized.
	CI float64
	// MeanFailures is the mean failure count per run.
	MeanFailures float64
	// Runs is the number of executions.
	Runs int
}

// WithinCI reports whether the realized mean lies within its confidence
// interval of the planned expectation — the planned-vs-realized
// validation the runtime experiments gate on.
func (r ExecReport) WithinCI() bool {
	d := r.Realized - r.Planned
	if d < 0 {
		d = -d
	}
	return d <= r.CI
}

// ExecutePlan runs a chain checkpoint plan on the crash-safe execution
// runtime (internal/exec) runs times under Exponential failures with
// the model's rate and downtime, and reports the realized makespan
// against the Proposition-1 planned expectation. It is the
// executed-counterpart of Simulate: the runtime advances task by task
// under a virtual clock, loses uncheckpointed progress on every
// failure, and rewinds to the latest checkpoint — so the realized mean
// validates the planned expectation end to end.
func ExecutePlan(g *Graph, m Model, checkpointAfter []bool, runs int, seed uint64) (ExecReport, error) {
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return ExecReport{}, err
	}
	w, err := exec.NewChainWorkload(cp, checkpointAfter)
	if err != nil {
		return ExecReport{}, err
	}
	res, err := exec.Campaign(w, failure.Exponential{Lambda: m.Lambda}, exec.CampaignOptions{
		Runs: runs, Seed: seed, Downtime: m.Downtime,
	})
	if err != nil {
		return ExecReport{}, err
	}
	return ExecReport{
		Planned:      w.Planned(m),
		Realized:     res.Makespan.Mean(),
		CI:           res.Makespan.CI(0.99),
		MeanFailures: res.Failures.Mean(),
		Runs:         res.Runs,
	}, nil
}

// ResilienceReport summarizes one adaptive execution against a
// degraded checkpoint store: the realized makespan, the virtual store
// overhead folded into it (injected latency plus backoff delays), the
// worst crash-rewind exposure the run ever carried, the number of
// online replans and abandoned saves, and the final degradation-ladder
// level ("healthy", "degraded", "failover" or "down").
type ResilienceReport struct {
	Makespan      float64
	StoreOverhead float64
	MaxRewind     float64
	Replans       int
	GiveUps       int
	Level         string
}

// ExecutePlanResilient runs a chain checkpoint plan ONCE on the
// executor against a deterministically degraded in-memory
// store: every operation pays Exp-distributed virtual latency with the
// given mean, saves fail with probability writeFail, and the executor
// responds with capped exponential-backoff retries plus online suffix
// replanning (re-solving the chain DP when effective checkpoint cost
// drifts 25% past the plan's). It is the degraded-store counterpart of
// ExecutePlan — the evidence behind it is experiment E19.
func ExecutePlanResilient(g *Graph, m Model, checkpointAfter []bool, meanLatency, writeFail float64, seed uint64) (ResilienceReport, error) {
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return ResilienceReport{}, err
	}
	w, err := exec.NewChainWorkload(cp, checkpointAfter)
	if err != nil {
		return ResilienceReport{}, err
	}
	meanC := 0.0
	for _, c := range cp.Ckpt {
		meanC += c
	}
	meanC /= float64(len(cp.Ckpt))
	res, err := exec.RunSpec{
		RunID: "resilient", Seed: seed, Salt: 1,
		Store:       &exec.StoreLayout{Faults: &store.FaultPlan{Seed: seed, WriteFail: writeFail, MeanLatency: meanLatency}},
		RetryPolicy: exec.ExpBackoff{Base: 0.25 * meanC, Cap: meanC, MaxAttempts: 4}, ReplanRatio: 1.25,
	}.Run(exec.Plan{Workload: w, Model: m, Replanner: exec.ChainReplanner{CP: cp}})
	if err != nil {
		return ResilienceReport{}, err
	}
	return ResilienceReport{
		Makespan:      res.Makespan,
		StoreOverhead: res.StoreOverhead,
		MaxRewind:     res.MaxRewind,
		Replans:       res.Replans,
		GiveUps:       res.GiveUps,
		Level:         res.Level.String(),
	}, nil
}

// ProbeResult is the plan-time store-telemetry measurement
// (internal/exec.ProbeResult re-exported).
type ProbeResult = exec.ProbeResult

// TelemetryPlan is the outcome of a telemetry-fed plan-time re-solve:
// the probe that measured the store, the placement re-solved under
// effective checkpoint costs C_i + overhead, and the naive placement
// the configured costs would have produced. Both Expected fields are
// TRUE-cost expectations (the overhead inflates costs only inside the
// optimization), so the two plans are directly comparable — and under
// the REALIZED effective costs the telemetry plan's sparser placement
// is the one that wins.
type TelemetryPlan struct {
	Probe ProbeResult
	// Plan is the placement re-solved with every checkpoint cost
	// inflated by the probe's overhead estimate.
	Plan ChainResult
	// Naive is the placement solved from the configured costs alone.
	Naive ChainResult
	// Overhead is the per-checkpoint overhead the re-solve used
	// (Probe.Estimate).
	Overhead float64
}

// OptimalChainPlanTelemetry closes the planner-feedback loop at PLAN
// time: it probes the given store stack for its realized per-operation
// overhead (probeSamples saves under a dedicated run ID; ≤ 0 for the
// default), then re-solves the chain placement with the effective
// checkpoint cost C_i + overhead — the same re-solve the executor's
// online replanning performs mid-run, applied before the run starts.
// This is the whole-plan counterpart of suffix replanning: a store
// behind a slow or lossy network yields a sparser placement up front
// instead of after the first drift detection.
func OptimalChainPlanTelemetry(g *Graph, m Model, initialRecovery float64, st store.Store, probeSamples int) (TelemetryPlan, error) {
	cp, _, err := core.NewChainProblem(g, m, initialRecovery)
	if err != nil {
		return TelemetryPlan{}, err
	}
	naive, err := core.SolveChainDP(cp)
	if err != nil {
		return TelemetryPlan{}, err
	}
	probe := exec.ProbeStore(st, "telemetry-probe", probeSamples)
	segs, err := exec.ChainReplanner{CP: cp}.Replan(0, probe.Estimate)
	if err != nil {
		return TelemetryPlan{}, err
	}
	ck := make([]bool, cp.Len())
	for _, s := range segs {
		ck[s.End] = true
	}
	expected, err := cp.Makespan(ck)
	if err != nil {
		return TelemetryPlan{}, err
	}
	return TelemetryPlan{
		Probe:    probe,
		Plan:     ChainResult{Expected: expected, CheckpointAfter: ck},
		Naive:    naive,
		Overhead: probe.Estimate,
	}, nil
}

// Exponential builds the memoryless failure law of the core model.
func Exponential(lambda float64) (failure.Exponential, error) {
	return failure.NewExponential(lambda)
}

// Weibull builds the heavy-tailed law of the general-failure extension.
func Weibull(shape, scale float64) (failure.Weibull, error) {
	return failure.NewWeibull(shape, scale)
}
