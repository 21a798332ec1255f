package expt

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/store"
)

func init() {
	register(Info{
		ID:    "E19",
		Title: "Degraded-store resilience: adaptive replanning vs static plans, and chaos replay identity",
		Claim: "under drifting checkpoint-store latency the adaptive executor (health-tracked retries, online suffix replanning, degradation ladder) realizes a strictly lower makespan than the static plan once latency reaches 2× the planned checkpoint cost (paired 99% CI excluding zero), while kill/resume replay identity survives retries, replans, quota faults and multi-tenant contention on a shared injector",
	}, planE19)
}

func planE19(cfg Config) (*Plan, error) {
	const (
		n      = 40
		lambda = 0.02
		down   = 1.0
	)
	g, err := dag.Chain(n, dag.DefaultWeights(), SetupStream(cfg, "E19"))
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
	dp, err := core.SolveChainDP(cp)
	if err != nil {
		return nil, err
	}
	meanC := 0.0
	for _, c := range cp.Ckpt {
		meanC += c
	}
	meanC /= float64(len(cp.Ckpt))

	p := &Plan{}

	// Table 1: paired adaptive-vs-static campaign under drifting store
	// latency. Both arms run the SAME resilience machinery (retry policy,
	// health tracking, overhead accounting) on logically-keyed fault
	// stacks sharing plan and failure seeds; the only difference is that
	// the static arm's ReplanRatio of 0 attaches no Replanner. The paired per-run makespan delta
	// therefore isolates the value of online replanning.
	campRuns := cfg.Runs(600, 300)
	camp := p.AddTable(&result.Table{
		ID: "E19",
		Title: fmt.Sprintf("adaptive vs static under degraded stores: paired deltas over %d runs (chain n=%d, λ=%g, D=%g, mean C=%.3g)",
			campRuns, n, lambda, down, meanC),
		Columns: []string{
			"latency_mult", "runs", "static_mean", "adaptive_mean", "delta_mean", "delta_ci99", "replans_mean", "ci_excludes_0",
		},
	})
	type campOut struct {
		applicable bool // the acceptance claim covers mult >= 2 only
		improves   bool
	}
	for _, mult := range []float64{0, 2, 4} {
		mult := mult
		p.Job(camp, func(s *rng.Stream) (RowOut, error) {
			w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
			if err != nil {
				return RowOut{}, err
			}
			plan := exec.Plan{Workload: w, Model: m, Replanner: exec.ChainReplanner{CP: cp}}
			var static, adaptive, delta stats.Summary
			replans := 0
			for r := 0; r < campRuns; r++ {
				planSeed := s.Uint64()
				srcSeed := s.Uint64()
				spec := exec.RunSpec{
					RunID: "camp", Seed: srcSeed, Salt: 1,
					Store: &exec.StoreLayout{Faults: &store.FaultPlan{
						Seed:        planSeed,
						WriteFail:   0.1,
						ReadFail:    0.05,
						MeanLatency: mult * meanC,
					}},
					RetryPolicy: exec.ExpBackoff{Base: 0.25 * meanC, Cap: meanC, MaxAttempts: 4},
					Cooldown:    2,
				}
				st, err := spec.Run(plan)
				if err != nil {
					return RowOut{}, err
				}
				spec.ReplanRatio = 1.25
				ad, err := spec.Run(plan)
				if err != nil {
					return RowOut{}, err
				}
				static.Add(st.Makespan)
				adaptive.Add(ad.Makespan)
				delta.Add(st.Makespan - ad.Makespan)
				replans += ad.Replans
			}
			ci := delta.CI(0.99)
			excludes := delta.Mean()-ci > 0
			applicable := mult >= 2
			return RowOut{
				Cells: []result.Cell{
					result.Float(mult),
					result.Int(campRuns),
					result.Float(static.Mean()),
					result.Float(adaptive.Mean()),
					result.Float(delta.Mean()),
					result.Float(ci),
					result.Float(float64(replans) / float64(campRuns)),
					result.Bool(excludes),
				},
				Value: campOut{applicable: applicable, improves: excludes},
			}, nil
		})
	}

	// Table 2: chaos replay identity. Each drill opens its backends
	// (MemStore, optional secondary, optional quota ledger) once and
	// restarts the logically-keyed fault stack per invocation
	// (RunSpec.RunOn). For every kill point: run a crash invocation on
	// fresh backends, resume once, and demand the journal and metrics
	// match an uninterrupted reference bit-for-bit.
	drills := p.AddTable(&result.Table{
		ID:    "E19",
		Title: "chaos replay identity: adaptive executions killed at spread event points, resumed from the store",
		Columns: []string{
			"scenario", "store", "kill_points", "journal_events", "journal_identical", "metrics_identical",
		},
	})
	type identOut struct{ identical bool }
	w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
	if err != nil {
		return nil, err
	}
	plan := exec.Plan{Workload: w, Model: m, Replanner: exec.ChainReplanner{CP: cp}}
	// drill declares one scenario's run; replan sets ReplanRatio 1.4.
	drill := func(faults store.FaultPlan, retry exec.RetryPolicy, replan bool) exec.RunSpec {
		spec := exec.RunSpec{
			RunID: "e19", Seed: 501, Store: &exec.StoreLayout{Faults: &faults},
			RetryPolicy: retry, DownAfter: 3,
		}
		if replan {
			spec.ReplanRatio = 1.4
		}
		return spec
	}
	withQuota := func(spec exec.RunSpec, q store.Quota) exec.RunSpec {
		spec.Store.Quota = &q
		return spec
	}
	withSecondary := func(spec exec.RunSpec) exec.RunSpec {
		spec.Store.Secondary = true
		return spec
	}
	scenarios := []struct {
		name, storeTag string
		spec           exec.RunSpec
	}{
		{
			"chain/drift-replan", "mem+crc+faults",
			drill(store.FaultPlan{Seed: 31, MeanLatency: 2.5, WriteFail: 0.2, ReadFail: 0.1}, exec.ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 5}, true),
		},
		{
			"chain/torn-writes", "mem+crc+faults",
			drill(store.FaultPlan{Seed: 32, MeanLatency: 1.5, WriteFail: 0.3, TornWrite: 0.2}, exec.FixedRetry{Attempts: 3}, false),
		},
		{
			"chain/quota-down", "mem+crc+faults+quota",
			withQuota(drill(store.FaultPlan{Seed: 33, MeanLatency: 1}, exec.ExpBackoff{Base: 0.5, MaxAttempts: 3}, false), store.Quota{MaxCheckpoints: 2}),
		},
		{
			"chain/failover", "mem+crc+faults+secondary",
			withSecondary(drill(store.FaultPlan{Seed: 34, WriteFail: 1}, exec.FixedRetry{Attempts: 1}, false)),
		},
	}
	for i, sc := range scenarios {
		sc := sc
		sc.spec.Salt = uint64(i + 1)
		p.Job(drills, func(s *rng.Stream) (RowOut, error) {
			ref, err := sc.spec.Run(plan)
			if err != nil {
				return RowOut{}, err
			}
			ne := len(ref.Journal)
			kills := []int{ne / 5, 2 * ne / 5, 3 * ne / 5, 4 * ne / 5}
			identical, metricsOK := true, true
			for _, kill := range kills {
				b, err := sc.spec.Open()
				if err != nil {
					return RowOut{}, err
				}
				killed := sc.spec
				killed.CrashAfterEvents = kill
				if _, err := killed.RunOn(plan, b); !errors.Is(err, exec.ErrCrashed) {
					return RowOut{}, fmt.Errorf("E19: %s kill point %d: want ErrCrashed, got %v", sc.name, kill, err)
				}
				res, err := sc.spec.RunOn(plan, b)
				if err != nil {
					return RowOut{}, fmt.Errorf("E19: %s resume after kill %d: %w", sc.name, kill, err)
				}
				identical = identical && res.Journal.Equal(ref.Journal)
				metricsOK = metricsOK && res.Metrics == ref.Metrics &&
					res.Replans == ref.Replans && res.GiveUps == ref.GiveUps &&
					res.Level == ref.Level && res.MaxRewind == ref.MaxRewind
			}
			return RowOut{
				Cells: []result.Cell{
					result.Str(sc.name),
					result.Str(sc.storeTag),
					result.Int(len(kills)),
					result.Int(ne),
					result.Bool(identical),
					result.Bool(metricsOK),
				},
				Value: identOut{identical: identical && metricsOK},
			}, nil
		})
	}

	// Multi-tenant contention drill: four tenants share ONE
	// logically-keyed injector and ONE quota ledger, run concurrently,
	// and one tenant is killed mid-flight and resumed. Logical fault
	// keying makes every tenant's outcome a pure function of its own
	// operations, so each concurrent journal must equal the journal of
	// the same tenant run ALONE on a private stack.
	p.Job(drills, func(s *rng.Stream) (RowOut, error) {
		const tenants = 4
		spec := exec.RunSpec{
			RunID: "camp", Seed: 601, Salt: 1,
			Store: &exec.StoreLayout{
				Faults: &store.FaultPlan{Seed: 35, MeanLatency: 1.5, WriteFail: 0.15},
				Quota:  &store.Quota{MaxCheckpoints: 3},
			},
			RetryPolicy: exec.ExpBackoff{Base: 0.5, Cap: 2, MaxAttempts: 3},
			ReplanRatio: 1.4, DownAfter: 3,
		}
		// Solo references: each tenant alone on a private stack. Quota
		// accounting is per tenant, so a private ledger admits exactly
		// what the shared one would.
		refs := make([]*exec.Result, tenants)
		for i := range refs {
			var err error
			if refs[i], err = spec.Tenant(i).Run(plan); err != nil {
				return RowOut{}, err
			}
		}
		// Contention run: shared backends, all four tenants concurrent on
		// one stack; tenant 0 is killed.
		killed := spec
		killed.CrashAfterEvents = len(refs[0].Journal) / 2
		b, st, err := killed.Boot()
		if err != nil {
			return RowOut{}, err
		}
		results, errs := killed.ExecuteTenants(plan, st, tenants)
		for i := 1; i < tenants; i++ {
			if errs[i] != nil {
				return RowOut{}, fmt.Errorf("E19: tenant %d: %w", i, errs[i])
			}
		}
		if !errors.Is(errs[0], exec.ErrCrashed) {
			return RowOut{}, fmt.Errorf("E19: tenant 0 kill: want ErrCrashed, got %v", errs[0])
		}
		// Resume the killed tenant on a restarted stack.
		if results[0], err = spec.Tenant(0).RunOn(plan, b); err != nil {
			return RowOut{}, fmt.Errorf("E19: tenant 0 resume: %w", err)
		}
		identical, metricsOK := true, true
		events := 0
		for i := 0; i < tenants; i++ {
			identical = identical && results[i].Journal.Equal(refs[i].Journal)
			metricsOK = metricsOK && results[i].Metrics == refs[i].Metrics
			events += len(results[i].Journal)
		}
		return RowOut{
			Cells: []result.Cell{
				result.Str(fmt.Sprintf("multi-tenant/contention×%d", tenants)),
				result.Str("mem+crc+faults+quota(shared)"),
				result.Int(1),
				result.Int(events),
				result.Bool(identical),
				result.Bool(metricsOK),
			},
			Value: identOut{identical: identical && metricsOK},
		}, nil
	})

	// Table 3: degradation-ladder trace — one execution per scenario,
	// pinning the ladder level the run ends at and the rewind exposure
	// it carried.
	ladder := p.AddTable(&result.Table{
		ID:    "E19",
		Title: "degradation ladder: final level, save give-ups and crash-rewind exposure per scenario",
		Columns: []string{
			"scenario", "saves", "give_ups", "replans", "level", "store_overhead", "max_rewind", "completed", "level_expected",
		},
	})
	type ladderOut struct{ ok bool }
	ladderDrills := []struct {
		name   string
		spec   exec.RunSpec
		expect exec.DegradeLevel
	}{
		{
			name:   "clean store",
			spec:   drill(store.FaultPlan{Seed: 41}, exec.ExpBackoff{Base: 0.5, MaxAttempts: 4}, false),
			expect: exec.LevelHealthy,
		},
		{
			name:   "latency drift",
			spec:   drill(store.FaultPlan{Seed: 42, MeanLatency: 3, WriteFail: 0.2}, exec.ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 5}, true),
			expect: exec.LevelDegraded,
		},
		{
			name:   "primary dead, secondary alive",
			spec:   withSecondary(drill(store.FaultPlan{Seed: 43, WriteFail: 1}, exec.FixedRetry{Attempts: 1}, false)),
			expect: exec.LevelFailover,
		},
		{
			name:   "primary dead, no secondary",
			spec:   drill(store.FaultPlan{Seed: 44, WriteFail: 1}, exec.FixedRetry{Attempts: 1}, false),
			expect: exec.LevelDown,
		},
		{
			name:   "quota exhausted",
			spec:   withQuota(drill(store.FaultPlan{Seed: 45}, exec.ExpBackoff{Base: 0.5, MaxAttempts: 4}, false), store.Quota{MaxBytes: 16}),
			expect: exec.LevelDown,
		},
	}
	for i, ld := range ladderDrills {
		ld := ld
		ld.spec.Seed, ld.spec.Salt = 701, uint64(100+i)
		p.Job(ladder, func(s *rng.Stream) (RowOut, error) {
			res, err := ld.spec.Run(plan)
			if err != nil {
				return RowOut{}, err
			}
			ok := res.Level == ld.expect
			return RowOut{
				Cells: []result.Cell{
					result.Str(ld.name),
					result.Int(res.Saves),
					result.Int(res.GiveUps),
					result.Int(res.Replans),
					result.Str(res.Level.String()),
					result.Float(res.StoreOverhead),
					result.Float(res.MaxRewind),
					result.Bool(true),
					result.Bool(ok),
				},
				Value: ladderOut{ok: ok},
			}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		allImprove, allIdent, allLadder := true, true, true
		for _, out := range outs {
			switch v := out.Value.(type) {
			case campOut:
				if v.applicable {
					allImprove = allImprove && v.improves
				}
			case identOut:
				allIdent = allIdent && v.identical
			case ladderOut:
				allLadder = allLadder && v.ok
			}
		}
		tables[camp].AddNote("acceptance: adaptive replanning strictly beats the static plan under store latency ≥ 2× planned C (paired 99%% CI of the delta excludes zero) → %s", yn(allImprove))
		tables[drills].AddNote("acceptance: every killed-and-resumed adaptive execution — retries, replans, quota faults and multi-tenant contention on a shared injector included — reproduced the uninterrupted journal and metrics bit-for-bit → %s", yn(allIdent))
		tables[ladder].AddNote("degradation ladder reached the expected level in every scenario → %s", yn(allLadder))
		return nil
	}
	return p, nil
}
