package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/sim"
)

func init() {
	register(Info{
		ID:    "E6",
		Title: "Proposition 3: the chain DP is optimal",
		Claim: "Algorithm 1 returns the minimum expected makespan over all 2^{n−1} placements; its value matches simulation",
	}, planE6)
}

func planE6(cfg Config) (*Plan, error) {
	p := &Plan{}
	opt := p.AddTable(&result.Table{
		ID:      "E6",
		Title:   "DP vs exhaustive enumeration on random heterogeneous chains",
		Columns: []string{"n", "lambda", "E_dp", "E_bruteforce", "rel_gap", "ckpts_dp", "match"},
	})
	for _, n := range []int{6, 10, 14, 16} {
		for _, lambda := range []float64{1e-3, 0.02, 0.2} {
			n, lambda := n, lambda
			p.Job(opt, func(s *rng.Stream) (RowOut, error) {
				g, err := dag.Chain(n, dag.DefaultWeights(), s.Split())
				if err != nil {
					return RowOut{}, err
				}
				m, err := expectation.NewModel(lambda, 0.5)
				if err != nil {
					return RowOut{}, err
				}
				cp, _, err := core.NewChainProblem(g, m, 0)
				if err != nil {
					return RowOut{}, err
				}
				dp, err := core.SolveChainDP(cp)
				if err != nil {
					return RowOut{}, err
				}
				bf, err := core.BruteForceChain(cp)
				if err != nil {
					return RowOut{}, err
				}
				gap := numeric.RelErr(dp.Expected, bf.Expected)
				match := gap < 1e-9
				return RowOut{
					Cells: []result.Cell{
						result.Int(n), result.Float(lambda), result.Float(dp.Expected), result.Float(bf.Expected),
						result.Sci(gap), result.Int(len(dp.Positions())), result.Bool(match),
					},
					Value: match,
				}, nil
			})
		}
	}

	// Cross-validate the DP's expectation by simulating its plan.
	runs := cfg.Runs(60_000, 3_000)
	mc := p.AddTable(&result.Table{
		ID:      "E6",
		Title:   fmt.Sprintf("DP expectation vs simulated makespan of its plan (%d runs)", runs),
		Columns: []string{"n", "lambda", "E_dp", "E_sim", "CI(99.9%)", "inCI"},
	})
	for _, n := range []int{8, 16} {
		for _, lambda := range []float64{0.02, 0.1} {
			n, lambda := n, lambda
			p.Job(mc, func(s *rng.Stream) (RowOut, error) {
				g, err := dag.Chain(n, dag.DefaultWeights(), s.Split())
				if err != nil {
					return RowOut{}, err
				}
				m, err := expectation.NewModel(lambda, 0.5)
				if err != nil {
					return RowOut{}, err
				}
				cp, _, err := core.NewChainProblem(g, m, 0)
				if err != nil {
					return RowOut{}, err
				}
				dp, err := core.SolveChainDP(cp)
				if err != nil {
					return RowOut{}, err
				}
				res, err := sim.MonteCarloPlan(cp, dp.CheckpointAfter, sim.ExponentialFactory(lambda), sim.Options{}, runs, s.Split())
				if err != nil {
					return RowOut{}, err
				}
				in := res.Makespan.Contains(dp.Expected, 0.999)
				return RowOut{
					Cells: []result.Cell{
						result.Int(n), result.Float(lambda), result.Float(dp.Expected),
						result.Float(res.Makespan.Mean()), result.Sci(res.Makespan.CI(0.999)), result.Bool(in),
					},
					Value: in,
				}, nil
			})
		}
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		allMatch, allIn := true, true
		for j, job := range p.Jobs {
			switch job.Table {
			case opt:
				allMatch = allMatch && outs[j].Value.(bool)
			case mc:
				allIn = allIn && outs[j].Value.(bool)
			}
		}
		tables[opt].AddNote("pass: DP equals exhaustive optimum on every instance → %s", yn(allMatch))
		tables[mc].AddNote("pass: analytical optimum inside simulated CI everywhere → %s", yn(allIn))
		return nil
	}
	return p, nil
}
