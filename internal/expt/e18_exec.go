package expt

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/store"
)

func init() {
	register(Info{
		ID:    "E18",
		Title: "Crash-safe executor: realized vs planned makespan, and crash/resume replay identity",
		Claim: "executing plans on the runtime realizes the Proposition-1 planned expectations within campaign confidence intervals (chains and DAGs, both cost models), and executions killed at injected fault points resume from persisted checkpoints with bit-identical journals",
	}, planE18)
}

func planE18(cfg Config) (*Plan, error) {
	const (
		n      = 40
		lambda = 0.02
		down   = 1.0
	)
	g, err := dag.Chain(n, dag.DefaultWeights(), SetupStream(cfg, "E18"))
	if err != nil {
		return nil, err
	}
	m, err := expectation.NewModel(lambda, down)
	if err != nil {
		return nil, err
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return nil, err
	}
	runs := cfg.Runs(20_000, 1_500)

	p := &Plan{}
	chain := p.AddTable(&result.Table{
		ID:    "E18",
		Title: fmt.Sprintf("chain plans executed on the runtime: planned (Prop. 1) vs realized (%d runs, λ=%g, D=%g, n=%d)", runs, lambda, down, n),
		Columns: []string{
			"strategy", "ckpts", "planned", "realized", "ci99", "rel_err", "within_ci",
		},
	})

	type stratVec struct {
		name string
		ck   []bool
	}
	var strategies []stratVec
	for _, name := range []string{"dp", "daly", "young", "every:5"} {
		ck, err := core.ChainStrategy(cp, name, lambda)
		if err != nil {
			return nil, err
		}
		strategies = append(strategies, stratVec{name, ck})
	}

	type ciOut struct{ within bool }
	for _, sv := range strategies {
		sv := sv
		p.Job(chain, func(s *rng.Stream) (RowOut, error) {
			w, err := exec.NewChainWorkload(cp, sv.ck)
			if err != nil {
				return RowOut{}, err
			}
			planned := w.Planned(m)
			res, err := exec.Campaign(w, failure.Exponential{Lambda: lambda}, exec.CampaignOptions{
				Runs: runs, Seed: s.Uint64(), Workers: 1, Downtime: down,
			})
			if err != nil {
				return RowOut{}, err
			}
			realized := res.Makespan.Mean()
			ci := res.Makespan.CI(0.99)
			within := math.Abs(realized-planned) <= ci
			return RowOut{
				Cells: []result.Cell{
					result.Str(sv.name),
					result.Int(len(checkpointCount(sv.ck))),
					result.Float(planned),
					result.Float(realized),
					result.Float(ci),
					result.Sci(math.Abs(realized-planned) / planned),
					result.Bool(within),
				},
				Value: ciOut{within: within},
			}, nil
		})
	}

	// DAG plans under both cost models: the solver's Expected, the
	// workload's recomputed Planned (they must agree — same segment
	// arithmetic), and the realized campaign mean.
	gd, err := dag.Layered(5, 4, 0.4, dag.DefaultWeights(), SetupStream(cfg, "E18").Keyed(2))
	if err != nil {
		return nil, err
	}
	order, err := gd.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	dagTab := p.AddTable(&result.Table{
		ID:    "E18",
		Title: fmt.Sprintf("DAG plans (layered 5×4) executed under both cost models (%d runs, λ=%g)", runs, lambda),
		Columns: []string{
			"cost_model", "segments", "E_solver", "planned_exec", "realized", "ci99", "within_ci",
		},
	})
	for _, cm := range []core.CostModel{core.LastTaskCosts{R0: 0.5}, core.LiveSetCosts{R0: 0.5}} {
		cm := cm
		p.Job(dagTab, func(s *rng.Stream) (RowOut, error) {
			sol, err := core.SolveOrderDP(gd, order, m, cm)
			if err != nil {
				return RowOut{}, err
			}
			w, err := exec.NewDAGWorkload(gd, sol.Plan(), cm)
			if err != nil {
				return RowOut{}, err
			}
			planned := w.Planned(m)
			if math.Abs(planned-sol.Expected) > 1e-9*math.Max(planned, 1) {
				return RowOut{}, fmt.Errorf("E18: workload planned %v disagrees with solver expected %v under %s",
					planned, sol.Expected, cm.Name())
			}
			res, err := exec.Campaign(w, failure.Exponential{Lambda: lambda}, exec.CampaignOptions{
				Runs: runs, Seed: s.Uint64(), Workers: 1, Downtime: down,
			})
			if err != nil {
				return RowOut{}, err
			}
			realized := res.Makespan.Mean()
			ci := res.Makespan.CI(0.99)
			within := math.Abs(realized-planned) <= ci
			return RowOut{
				Cells: []result.Cell{
					result.Str(cm.Name()),
					result.Int(w.Segments()),
					result.Float(sol.Expected),
					result.Float(planned),
					result.Float(realized),
					result.Float(ci),
					result.Bool(within),
				},
				Value: ciOut{within: within},
			}, nil
		})
	}

	// Crash/resume acceptance: kill the executor at injected fault
	// points, resume from the persisted store, and demand the final
	// journal be byte-identical to an uninterrupted stored run's. The
	// store charges no latency or backoff here, so the compute events
	// and metrics must also equal the store-less run's.
	crash := p.AddTable(&result.Table{
		ID:    "E18",
		Title: "crash/resume drills: executions killed at injected points, resumed from the store",
		Columns: []string{
			"plan", "store", "kill_points", "crashes", "journal_events", "journal_identical", "metrics_identical", "compute_identical",
		},
	})
	type crashOut struct{ identical bool }
	type drill struct {
		plan, storeTag string
		workload       func() (*exec.Workload, error)
		spec           exec.RunSpec // Store.Dir is set under a fresh temp dir when file
		file           bool
	}
	chainDP := func() (*exec.Workload, error) { return exec.NewChainWorkload(cp, strategies[0].ck) } // dp
	dagLive := func() (*exec.Workload, error) {
		sol, err := core.SolveOrderDP(gd, order, m, core.LiveSetCosts{R0: 0.5})
		if err != nil {
			return nil, err
		}
		return exec.NewDAGWorkload(gd, sol.Plan(), core.LiveSetCosts{R0: 0.5})
	}
	drillSpec := func(salt uint64, faults *store.FaultPlan) exec.RunSpec {
		return exec.RunSpec{
			RunID: "drill", Seed: 1234, Salt: salt, Store: &exec.StoreLayout{Faults: faults},
			RetryPolicy: exec.FixedRetry{Attempts: 4},
		}
	}
	drills := []drill{
		{plan: "chain/dp", storeTag: "file+crc", workload: chainDP, spec: drillSpec(1, nil), file: true},
		{
			plan: "chain/dp", storeTag: "file+crc+faults", workload: chainDP, file: true,
			spec: drillSpec(1, &store.FaultPlan{Seed: 99, WriteFail: 0.1, TornWrite: 0.1, LoseOld: 0.3, ReadFail: 0.1}),
		},
		{
			plan: "dag/live-set", storeTag: "mem+crc+faults", workload: dagLive,
			spec: drillSpec(2, &store.FaultPlan{Seed: 7, WriteFail: 0.15, TornWrite: 0.15, LoseOld: 0.4, ReadFail: 0.15}),
		},
	}
	for _, d := range drills {
		d := d
		p.Job(crash, func(s *rng.Stream) (RowOut, error) {
			w, err := d.workload()
			if err != nil {
				return RowOut{}, err
			}
			plan := exec.Plan{Workload: w, Model: m}
			bare, err := exec.RunSpec{Seed: d.spec.Seed, Salt: d.spec.Salt}.Run(plan)
			if err != nil {
				return RowOut{}, err
			}
			// The uninterrupted reference and the killed run each get a
			// store of their own.
			refSpec, spec := d.spec, d.spec
			if d.file {
				dir, err := os.MkdirTemp("", "e18-store-*")
				if err != nil {
					return RowOut{}, err
				}
				defer os.RemoveAll(dir)
				refLayout, layout := *d.spec.Store, *d.spec.Store
				refLayout.Dir, layout.Dir = filepath.Join(dir, "ref"), filepath.Join(dir, "run")
				refSpec.Store, spec.Store = &refLayout, &layout
			}
			ref, err := refSpec.Run(plan)
			if err != nil {
				return RowOut{}, err
			}
			// Every invocation is a new process: a fresh stack over the
			// drill's backends.
			b, err := spec.Open()
			if err != nil {
				return RowOut{}, err
			}
			ne := len(ref.Journal)
			kills := []int{ne / 5, 2 * ne / 5, 3 * ne / 5, 4 * ne / 5}
			crashes := 0
			for _, kill := range kills {
				killed := spec
				killed.CrashAfterEvents = kill
				if _, err := killed.RunOn(plan, b); !errors.Is(err, exec.ErrCrashed) {
					return RowOut{}, fmt.Errorf("E18: %s kill point %d: want ErrCrashed, got %v", d.storeTag, kill, err)
				}
				crashes++
			}
			res, err := spec.RunOn(plan, b)
			if err != nil {
				return RowOut{}, err
			}
			identical := res.Journal.Equal(ref.Journal)
			metricsOK := res.Metrics == ref.Metrics
			compute := res.Journal.Compute().Equal(bare.Journal) && res.Metrics == bare.Metrics
			return RowOut{
				Cells: []result.Cell{
					result.Str(d.plan),
					result.Str(d.storeTag),
					result.Int(len(kills)),
					result.Int(crashes),
					result.Int(len(res.Journal)),
					result.Bool(identical),
					result.Bool(metricsOK),
					result.Bool(compute),
				},
				Value: crashOut{identical: identical && metricsOK && compute},
			}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		allCI, allIdent := true, true
		for _, out := range outs {
			switch v := out.Value.(type) {
			case ciOut:
				allCI = allCI && v.within
			case crashOut:
				allIdent = allIdent && v.identical
			}
		}
		tables[chain].AddNote("acceptance: every realized makespan within its 99%% campaign CI of the planned expectation: %s", yn(allCI))
		tables[crash].AddNote("acceptance: every killed-and-resumed execution reproduced the uninterrupted stored run's journal and metrics bit-for-bit, and its compute events and metrics equal the store-less run's: %s", yn(allIdent))
		return nil
	}
	return p, nil
}

// checkpointCount returns the checkpointed positions of a vector (it
// reuses the plan-level convention: the count is what the table shows).
func checkpointCount(ck []bool) []int {
	var out []int
	for i, c := range ck {
		if c {
			out = append(out, i)
		}
	}
	return out
}
