package expt

import (
	"fmt"
	"math"

	"repro/internal/expt/result"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/rng"
)

func init() {
	register(Info{
		ID:    "E9",
		Title: "Section 3 scenarios: workload and overhead scaling with p",
		Claim: "instantiating Eq. 6 under the workload models W(p) and overhead models C(p) yields the expected trade-offs in the optimal processor count",
	}, planE9)
}

func planE9(cfg Config) (*Plan, error) {
	pl := platform.Platform{Processors: 1 << 18, LambdaProc: 1e-6, Downtime: 1}
	const (
		wTotal = 1e5
		baseC  = 20.0
	)
	p := &Plan{}
	t := p.AddTable(&result.Table{
		ID:      "E9",
		Title:   fmt.Sprintf("optimal p per scenario (Wtotal=%g, baseC=%g, λproc=%g, D=%g)", wTotal, baseC, pl.LambdaProc, pl.Downtime),
		Columns: []string{"workload", "overhead", "p*", "E(p*)", "E(1)", "speedup", "interior"},
	})
	workloads := []platform.WorkloadModel{
		platform.PerfectlyParallel{},
		platform.Amdahl{Gamma: 1e-5},
		platform.Amdahl{Gamma: 1e-3},
		platform.NumericalKernel{Gamma: 0.01},
		platform.NumericalKernel{Gamma: 0.1},
	}
	overheads := []platform.OverheadModel{
		platform.ProportionalOverhead{},
		platform.ConstantOverhead{},
	}
	type interiority struct {
		constOverhead bool
		interior      bool
	}
	for _, wm := range workloads {
		for _, om := range overheads {
			wm, om := wm, om
			p.Job(t, func(s *rng.Stream) (RowOut, error) {
				task := moldable.Task{
					Name: wm.Name(), WTotal: wTotal, BaseCheckpoint: baseC,
					Scenario: platform.Scenario{Workload: wm, Overhead: om},
				}
				a, err := moldable.OptimalProcessors(task, pl)
				if err != nil {
					return RowOut{}, err
				}
				e1, err := task.ExpectedTime(pl, 1)
				if err != nil {
					return RowOut{}, err
				}
				interior := a.Processors > 1 && a.Processors < pl.Processors
				return RowOut{
					Cells: []result.Cell{
						result.Str(wm.Name()), result.Str(om.Name()), result.Int(a.Processors),
						result.Float(a.Expected), result.Float(e1), result.FixedUnit(a.Speedup, 1, "x"), result.Bool(interior),
					},
					Value: interiority{constOverhead: om.Name() == "constant", interior: interior},
				}, nil
			})
		}
	}

	// Failure-rate sensitivity of the optimal allocation.
	sens := p.AddTable(&result.Table{
		ID:      "E9",
		Title:   "optimal p vs per-processor failure rate (numerical kernel γ=0.05, constant overhead)",
		Columns: []string{"lambda_proc", "p*", "E(p*)", "speedup"},
	})
	for _, lp := range []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4} {
		lp := lp
		p.Job(sens, func(s *rng.Stream) (RowOut, error) {
			plv := platform.Platform{Processors: 1 << 18, LambdaProc: lp, Downtime: 1}
			task := moldable.Task{
				Name: "kernel", WTotal: wTotal, BaseCheckpoint: baseC,
				Scenario: platform.Scenario{Workload: platform.NumericalKernel{Gamma: 0.05}, Overhead: platform.ConstantOverhead{}},
			}
			a, err := moldable.OptimalProcessors(task, plv)
			if err != nil {
				return RowOut{}, err
			}
			return RowOut{
				Cells: []result.Cell{
					result.Sci(lp), result.Int(a.Processors), result.Float(a.Expected), result.FixedUnit(a.Speedup, 1, "x"),
				},
				Value: a.Processors,
			}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		constInterior := true
		monotone := true
		prevP := math.MaxInt
		for j, job := range p.Jobs {
			switch job.Table {
			case t:
				v := outs[j].Value.(interiority)
				if v.constOverhead && !v.interior {
					constInterior = false
				}
			case sens:
				pStar := outs[j].Value.(int)
				if pStar > prevP {
					monotone = false
				}
				prevP = pStar
			}
		}
		tables[t].AddNote("constant-overhead scenarios always have a finite interior optimum (λ grows with p while C does not shrink) → %s", yn(constInterior))
		tables[t].AddNote("proportional overhead pushes the optimum to (much) larger p — matching the Section 3 discussion of I/O bottlenecks")
		tables[sens].AddNote("higher failure rates shrink the optimal platform → %s", yn(monotone))
		return nil
	}
	return p, nil
}
