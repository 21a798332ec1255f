package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/expt"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/sim"
)

// planBench is the planning path with no persistence: the chain DP on a
// long chain, the DAG portfolio, the exact lattice solve and a
// Monte-Carlo campaign validating candidate plans.
type planBench struct {
	cfg      config
	chain    *dag.Graph
	chainM   expectation.Model
	dagM     expectation.Model
	layered  *dag.Graph
	tree     *dag.Graph
	small    *core.ChainProblem // checked against the dense reference each op
	dense    core.ChainResult
	plans    [][]core.Segment
	factory  sim.ProcessFactory
	campSeed uint64
	firstSig string // the first op's outputs; every later op must repeat them
}

func setupPlan(cfg config, seed uint64) (workload, error) {
	s := rng.New(seed)
	b := &planBench{cfg: cfg, campSeed: s.Keyed(5).Uint64()}
	var err error
	if b.chain, err = dag.Chain(cfg.PlanChainN, dag.DefaultWeights(), s.Keyed(1)); err != nil {
		return nil, err
	}
	if b.chainM, err = expectation.NewModel(cfg.PlanLambda, 1); err != nil {
		return nil, err
	}
	if b.dagM, err = expt.E15Model(); err != nil {
		return nil, err
	}
	if b.layered, err = dag.Layered(cfg.DAGLayers, cfg.DAGWidth, 0.3, dag.DefaultWeights(), s.Keyed(2)); err != nil {
		return nil, err
	}
	if b.tree, err = expt.E15Graph("in-tree", cfg.TreeN, s.Keyed(3)); err != nil {
		return nil, err
	}
	smallG, err := dag.Chain(cfg.DenseN, dag.DefaultWeights(), s.Keyed(4))
	if err != nil {
		return nil, err
	}
	if b.small, _, err = core.NewChainProblem(smallG, b.chainM, 0); err != nil {
		return nil, err
	}
	if b.dense, err = core.SolveChainDPDense(b.small); err != nil {
		return nil, err
	}
	b.plans = expt.E14ComparatorPlans()
	const procs = 1000
	law, err := expt.E14WeibullLaw(expt.E14PlatformMTBF * procs)
	if err != nil {
		return nil, err
	}
	b.factory = sim.SuperposedFactory(law, procs, failure.RejuvenateFailedOnly)
	return b, nil
}

func (b *planBench) op(*tracer) (sample, string, error) {
	m := sample{}
	n := float64(b.chain.Len())

	start := time.Now()
	cp, _, err := core.NewChainProblem(b.chain, b.chainM, 0)
	if err != nil {
		return nil, "", err
	}
	built := time.Now()
	chain, stats, err := core.SolveChainDPStats(cp)
	if err != nil {
		return nil, "", err
	}
	solved := time.Now()
	m["core.chain.build_s"] = built.Sub(start).Seconds()
	m["core.chain.solve_s"] = solved.Sub(built).Seconds()
	m["core.chain.transitions_per_task"] = float64(stats.Transitions) / n
	m["plan_chain_s"] = solved.Sub(start).Seconds()

	start = time.Now()
	portfolio, err := core.SolveDAGWith(b.layered, b.dagM, core.LiveSetCosts{}, core.Options{Workers: 1})
	if err != nil {
		return nil, "", err
	}
	mid := time.Now()
	lattice, lstats, err := core.SolveDAGLatticeStats(b.tree, b.dagM, core.LiveSetCosts{}, core.Options{Workers: 1})
	if err != nil {
		return nil, "", err
	}
	end := time.Now()
	m["core.dag.portfolio_s"] = mid.Sub(start).Seconds()
	m["core.dag.lattice_s"] = end.Sub(mid).Seconds()
	m["core.dag.lattice_states"] = float64(lstats.States)
	m["plan_dag_s"] = end.Sub(start).Seconds()

	start = time.Now()
	camp, err := sim.CampaignPlansSharded(b.plans, b.factory, sim.ShardOptions{
		Options: sim.Options{Downtime: 0.5, Workers: 1},
		Seed:    b.campSeed, Runs: b.cfg.CampaignReps, Shards: 1,
	})
	if err != nil {
		return nil, "", err
	}
	campS := time.Since(start).Seconds()
	m["sim.campaign_s"] = campS
	m["campaign_reps_per_s"] = float64(camp.Runs) / campS
	m["op_s"] = m["plan_chain_s"] + m["plan_dag_s"] + campS

	// Output checks, untimed.
	if stats.Arm != core.ArmMonotone {
		return m, "", fmt.Errorf("plan: chain DP ran the %s arm, want monotone", stats.Arm)
	}
	small, err := core.SolveChainDP(b.small)
	if err != nil {
		return m, "", err
	}
	if chainSig(small) != chainSig(b.dense) {
		return m, "", fmt.Errorf("plan: SolveChainDP differs from SolveChainDPDense on the %d-task chain", b.small.Len())
	}
	if camp.Runs != b.cfg.CampaignReps {
		return m, "", fmt.Errorf("plan: campaign completed %d of %d replications", camp.Runs, b.cfg.CampaignReps)
	}
	sig := fmt.Sprintf("chain %s dag %x/%x lattice %x campaign %s", chainSig(chain),
		math.Float64bits(portfolio.Expected), orderHash(portfolio.Order),
		math.Float64bits(lattice.Expected), campaignSig(camp))
	if b.firstSig == "" {
		b.firstSig = sig
	} else if sig != b.firstSig {
		return m, sig, fmt.Errorf("plan: outputs differ from the first op's")
	}
	return m, sig, nil
}

// chainSig identifies a chain result bit for bit.
func chainSig(r core.ChainResult) string {
	h := fnv.New64a()
	for _, c := range r.CheckpointAfter {
		if c {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%x/%x", math.Float64bits(r.Expected), h.Sum64())
}

func orderHash(order []int) uint64 {
	h := fnv.New64a()
	for _, v := range order {
		fmt.Fprintf(h, "%d,", v)
	}
	return h.Sum64()
}

// campaignSig identifies a campaign's aggregates bit for bit.
func campaignSig(c sim.CampaignResult) string {
	h := fnv.New64a()
	for i := range c.Results {
		r := &c.Results[i]
		d := &c.Delta[i]
		for _, v := range []float64{r.Makespan.Mean(), r.Makespan.Variance(), r.Failures.Mean(), d.Mean(), d.Variance()} {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%d/%x", c.Runs, h.Sum64())
}
