package expt

import (
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/rng"
)

func init() {
	register(Info{
		ID:    "E12",
		Title: "Extensions: content-dependent checkpoint costs on DAGs, and moldable pipelines",
		Claim: "with live-set checkpoint costs the linearization choice matters (Section 6, first extension); per-task processor counts instantiate the second extension",
	}, planE12)
}

func planE12(cfg Config) (*Plan, error) {
	p := &Plan{}

	// Table 1: linearization strategies under the live-set cost model.
	// One row job per graph family; each builds its graph from its own
	// keyed stream.
	strategies := core.DefaultStrategies()
	linCols := []string{"graph"}
	for _, s := range strategies {
		linCols = append(linCols, s.Name)
	}
	linCols = append(linCols, "best")
	lin := p.AddTable(&result.Table{
		ID:      "E12",
		Title:   "expected makespan per linearization strategy (live-set checkpoint costs)",
		Columns: linCols,
	})
	graphs := []struct {
		name  string
		build func(s *rng.Stream) (*dag.Graph, error)
	}{
		{"fork-join 4x3", func(s *rng.Stream) (*dag.Graph, error) {
			return dag.ForkJoin(4, 3, dag.DefaultWeights(), s)
		}},
		{"layered 4x4", func(s *rng.Stream) (*dag.Graph, error) {
			return dag.Layered(4, 4, 0.4, dag.DefaultWeights(), s)
		}},
		{"montage(6)", func(s *rng.Stream) (*dag.Graph, error) {
			return dag.MontageLike(6, dag.DefaultWeights(), s)
		}},
	}
	for _, gr := range graphs {
		gr := gr
		p.Job(lin, func(s *rng.Stream) (RowOut, error) {
			m, err := expectation.NewModel(0.02, 1)
			if err != nil {
				return RowOut{}, err
			}
			g, err := gr.build(s.Split())
			if err != nil {
				return RowOut{}, err
			}
			row := []result.Cell{result.Str(gr.name)}
			bestName, bestE := "", 0.0
			var firstE float64
			for i, st := range strategies {
				order, err := st.Order(g)
				if err != nil {
					return RowOut{}, err
				}
				res, err := core.SolveOrderDP(g, order, m, core.LiveSetCosts{})
				if err != nil {
					return RowOut{}, err
				}
				row = append(row, result.Float(res.Expected))
				if i == 0 {
					firstE = res.Expected
				}
				if bestName == "" || res.Expected < bestE {
					bestName, bestE = st.Name, res.Expected
				}
			}
			row = append(row, result.Str(bestName))
			return RowOut{Cells: row, Value: bestE < firstE*(1-1e-9)}, nil
		})
	}

	// Table 2: heuristic portfolio vs exhaustive optimum on a small DAG.
	small := p.AddTable(&result.Table{
		ID:      "E12",
		Title:   "portfolio vs exhaustive linearization optimum (small fork-join, live-set costs)",
		Columns: []string{"orders_enumerated", "E_portfolio", "E_exhaustive", "portfolio/exhaustive"},
	})
	p.Job(small, func(s *rng.Stream) (RowOut, error) {
		m, err := expectation.NewModel(0.02, 1)
		if err != nil {
			return RowOut{}, err
		}
		sg, err := dag.ForkJoin(2, 2, dag.DefaultWeights(), s.Split())
		if err != nil {
			return RowOut{}, err
		}
		heur, err := core.SolveDAG(sg, m, core.LiveSetCosts{})
		if err != nil {
			return RowOut{}, err
		}
		// The exact arm runs on the downset-lattice DP (E15 validates it
		// bit-identical to the factorial oracle), seeded with the
		// portfolio value just computed — same bound the solver would
		// derive itself, without solving the portfolio twice; the order
		// count streams through the O(n)-memory enumerator.
		exact, err := core.SolveDAGLattice(sg, m, core.LiveSetCosts{},
			core.Options{Workers: 1, IncumbentUB: heur.Expected})
		if err != nil {
			return RowOut{}, err
		}
		nOrders := int(sg.CountTopologicalOrders(0))
		return RowOut{Cells: []result.Cell{
			result.Int(nOrders), result.Float(heur.Expected), result.Float(exact.Expected),
			result.Fixed(heur.Expected/exact.Expected, 4),
		}}, nil
	})

	// Table 3: moldable pipeline (second extension). The plan is fully
	// deterministic (no rng), so it is computed at plan time and the row
	// jobs just emit the allocations.
	pl := platform.Platform{Processors: 1 << 16, LambdaProc: 1e-6, Downtime: 1}
	pipe := []moldable.Task{
		{Name: "ingest", WTotal: 2e4, BaseCheckpoint: 5,
			Scenario: platform.Scenario{Workload: platform.PerfectlyParallel{}, Overhead: platform.ProportionalOverhead{}}},
		{Name: "factorize", WTotal: 8e4, BaseCheckpoint: 30,
			Scenario: platform.Scenario{Workload: platform.NumericalKernel{Gamma: 0.05}, Overhead: platform.ConstantOverhead{}}},
		{Name: "reduce", WTotal: 1e4, BaseCheckpoint: 10,
			Scenario: platform.Scenario{Workload: platform.Amdahl{Gamma: 1e-4}, Overhead: platform.ConstantOverhead{}}},
	}
	seq, err := moldable.PlanSequence(pipe, pl)
	if err != nil {
		return nil, err
	}
	mold := p.AddTable(&result.Table{
		ID:      "E12",
		Title:   "moldable pipeline: per-task processor allocation (Eq. 6 instantiated per Section 3)",
		Columns: []string{"task", "workload", "overhead", "p*", "E(p*)", "speedup"},
	})
	for i := range seq.Allocations {
		i := i
		p.Job(mold, func(s *rng.Stream) (RowOut, error) {
			a := seq.Allocations[i]
			return RowOut{Cells: []result.Cell{
				result.Str(pipe[i].Name), result.Str(pipe[i].Scenario.Workload.Name()), result.Str(pipe[i].Scenario.Overhead.Name()),
				result.Int(a.Processors), result.Float(a.Expected), result.FixedUnit(a.Speedup, 1, "x"),
			}}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		ordersMatter := false
		for j, job := range p.Jobs {
			if job.Table == lin && outs[j].Value.(bool) {
				ordersMatter = true
			}
		}
		tables[lin].AddNote("some graph benefits from a non-default order → %s", yn(ordersMatter))
		tables[lin].AddNote("per-order checkpoint placement is exact (generalized Algorithm 1); only the order is heuristic — Prop. 2 says optimal ordering is strongly NP-hard")
		tables[small].AddNote("ratio 1.0000 means the portfolio found a globally optimal order")
		tables[mold].AddNote("pipeline total expected time %s; each task ends in a checkpoint, so per-task optimization is globally optimal for the sequence", result.Float(seq.TotalExpected).String())
		return nil
	}
	return p, nil
}
