package expt

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/failure"
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
	// the static arm has no Replanner. The paired per-run makespan delta
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
			pol := exec.ExpBackoff{Base: 0.25 * meanC, Cap: meanC, MaxAttempts: 4}
			var static, adaptive, delta stats.Summary
			replans := 0
			for r := 0; r < campRuns; r++ {
				planSeed := s.Uint64()
				srcSeed := s.Uint64()
				fp := store.FaultPlan{
					Seed:        planSeed,
					WriteFail:   0.1,
					ReadFail:    0.05,
					MeanLatency: mult * meanC,
				}
				arm := func(replanner exec.Replanner) (*exec.Result, error) {
					w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
					if err != nil {
						return nil, err
					}
					st, err := store.Spec{Backends: []store.Store{store.NewMemStore()}, Faults: &fp}.Build()
					if err != nil {
						return nil, err
					}
					return exec.Execute(w,
						exec.NewKeyedSource(failure.Exponential{Lambda: lambda}, srcSeed, 1),
						exec.Options{
							RunID:    "camp",
							Store:    st,
							Downtime: down,
							Adaptive: &exec.AdaptiveOptions{
								Retry:       pol,
								Replanner:   replanner,
								ReplanRatio: 1.25,
								Cooldown:    2,
							},
						})
				}
				st, err := arm(nil)
				if err != nil {
					return RowOut{}, err
				}
				ad, err := arm(exec.ChainReplanner{CP: cp})
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

	// Table 2: chaos replay identity. Each drill builds a persistent
	// bottom layer (MemStore, optional secondary, optional quota ledger)
	// and rebuilds the logically-keyed fault wrapper per invocation, as a
	// process restart would. For every kill point: run a crash invocation
	// on a fresh stack, resume once, and demand the journal and metrics
	// match an uninterrupted reference bit-for-bit.
	drills := p.AddTable(&result.Table{
		ID:    "E19",
		Title: "chaos replay identity: adaptive executions killed at spread event points, resumed from the store",
		Columns: []string{
			"scenario", "store", "kill_points", "journal_events", "journal_identical", "metrics_identical",
		},
	})
	type identOut struct{ identical bool }
	type drill struct {
		name, storeTag string
		plan           store.FaultPlan
		quota          *store.Quota
		secondary      bool
		retry          exec.RetryPolicy
		replan         bool
	}
	scenarios := []drill{
		{
			name: "chain/drift-replan", storeTag: "mem+crc+faults",
			plan:   store.FaultPlan{Seed: 31, MeanLatency: 2.5, WriteFail: 0.2, ReadFail: 0.1},
			retry:  exec.ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 5},
			replan: true,
		},
		{
			name: "chain/torn-writes", storeTag: "mem+crc+faults",
			plan:  store.FaultPlan{Seed: 32, MeanLatency: 1.5, WriteFail: 0.3, TornWrite: 0.2},
			retry: exec.FixedRetry{Attempts: 3},
		},
		{
			name: "chain/quota-down", storeTag: "mem+crc+faults+quota",
			plan:  store.FaultPlan{Seed: 33, MeanLatency: 1},
			quota: &store.Quota{MaxCheckpoints: 2},
			retry: exec.ExpBackoff{Base: 0.5, MaxAttempts: 3},
		},
		{
			name: "chain/failover", storeTag: "mem+crc+faults+secondary",
			plan:      store.FaultPlan{Seed: 34, WriteFail: 1},
			secondary: true,
			retry:     exec.FixedRetry{Attempts: 1},
		},
	}
	type stack struct {
		mem, sec *store.MemStore
		ledger   *store.QuotaLedger
	}
	newStack := func(d drill) *stack {
		a := &stack{mem: store.NewMemStore()}
		if d.secondary {
			a.sec = store.NewMemStore()
		}
		if d.quota != nil {
			a.ledger = store.NewQuotaLedger(*d.quota, nil)
		}
		return a
	}
	// execute runs w once on a fresh wrapper stack over a's bottom layer.
	execute := func(d drill, a *stack, w *exec.Workload, src exec.Source, crash int) (*exec.Result, error) {
		st, err := store.Spec{Backends: []store.Store{a.mem}, Faults: &d.plan, Quota: a.ledger}.Build()
		if err != nil {
			return nil, err
		}
		ao := &exec.AdaptiveOptions{
			Retry:       d.retry,
			ReplanRatio: 1.4,
			DownAfter:   3,
		}
		if d.replan {
			ao.Replanner = exec.ChainReplanner{CP: cp}
		}
		if a.sec != nil {
			if ao.Secondary, err = (store.Spec{Backends: []store.Store{a.sec}}).Build(); err != nil {
				return nil, err
			}
		}
		return exec.Execute(w, src, exec.Options{
			RunID: "e19", Store: st, Downtime: down,
			CrashAfterEvents: crash, Adaptive: ao,
		})
	}
	for i, d := range scenarios {
		d, salt := d, uint64(i+1)
		p.Job(drills, func(s *rng.Stream) (RowOut, error) {
			src := func() exec.Source {
				return exec.NewKeyedSource(failure.Exponential{Lambda: lambda}, 501, salt)
			}
			w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
			if err != nil {
				return RowOut{}, err
			}
			ref, err := execute(d, newStack(d), w, src(), 0)
			if err != nil {
				return RowOut{}, err
			}
			ne := len(ref.Journal)
			kills := []int{ne / 5, 2 * ne / 5, 3 * ne / 5, 4 * ne / 5}
			identical, metricsOK := true, true
			for _, kill := range kills {
				a := newStack(d)
				_, err := execute(d, a, w, src(), kill)
				if !errors.Is(err, exec.ErrCrashed) {
					return RowOut{}, fmt.Errorf("E19: %s kill point %d: want ErrCrashed, got %v", d.name, kill, err)
				}
				res, err := execute(d, a, w, src(), 0)
				if err != nil {
					return RowOut{}, fmt.Errorf("E19: %s resume after kill %d: %w", d.name, kill, err)
				}
				identical = identical && res.Journal.Equal(ref.Journal)
				metricsOK = metricsOK && res.Metrics == ref.Metrics &&
					res.Replans == ref.Replans && res.GiveUps == ref.GiveUps &&
					res.Level == ref.Level && res.MaxRewind == ref.MaxRewind
			}
			return RowOut{
				Cells: []result.Cell{
					result.Str(d.name),
					result.Str(d.storeTag),
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
		fp := store.FaultPlan{Seed: 35, MeanLatency: 1.5, WriteFail: 0.15}
		quota := store.Quota{MaxCheckpoints: 3}
		opts := func(st store.Store, crash int) exec.Options {
			return exec.Options{
				Store: st, Downtime: down, CrashAfterEvents: crash,
				Adaptive: &exec.AdaptiveOptions{
					Retry:       exec.ExpBackoff{Base: 0.5, Cap: 2, MaxAttempts: 3},
					ReplanRatio: 1.4,
					Replanner:   exec.ChainReplanner{CP: cp},
					DownAfter:   3,
				},
			}
		}
		src := func(i int) exec.Source {
			return exec.NewKeyedSource(failure.Exponential{Lambda: lambda}, 601, uint64(i+1))
		}
		// Solo references: each tenant alone on a private stack. Quota
		// accounting is per tenant, so a private ledger admits exactly
		// what the shared one would.
		refs := make([]*exec.Result, tenants)
		for i := 0; i < tenants; i++ {
			w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
			if err != nil {
				return RowOut{}, err
			}
			st, err := store.Spec{
				Backends: []store.Store{store.NewMemStore()}, Faults: &fp, Quota: store.NewQuotaLedger(quota, nil),
			}.Build()
			if err != nil {
				return RowOut{}, err
			}
			o := opts(st, 0)
			o.RunID = fmt.Sprintf("camp-t%d", i)
			refs[i], err = exec.Execute(w, src(i), o)
			if err != nil {
				return RowOut{}, err
			}
		}
		// Contention run: shared bottom layer, one wrapper stack per
		// invocation, all four tenants concurrent; tenant 0 is killed.
		shared := store.Spec{
			Backends: []store.Store{store.NewMemStore()}, Faults: &fp, Quota: store.NewQuotaLedger(quota, nil),
		}
		results := make([]*exec.Result, tenants)
		errs := make([]error, tenants)
		st, err := shared.Build()
		if err != nil {
			return RowOut{}, err
		}
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
				if err != nil {
					errs[i] = err
					return
				}
				crash := 0
				if i == 0 {
					crash = len(refs[0].Journal) / 2
				}
				o := opts(st, crash)
				o.RunID = fmt.Sprintf("camp-t%d", i)
				results[i], errs[i] = exec.Execute(w, src(i), o)
			}()
		}
		wg.Wait()
		for i := 1; i < tenants; i++ {
			if errs[i] != nil {
				return RowOut{}, fmt.Errorf("E19: tenant %d: %w", i, errs[i])
			}
		}
		if !errors.Is(errs[0], exec.ErrCrashed) {
			return RowOut{}, fmt.Errorf("E19: tenant 0 kill: want ErrCrashed, got %v", errs[0])
		}
		// Resume the killed tenant on a rebuilt wrapper stack, as a
		// process restart would.
		w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
		if err != nil {
			return RowOut{}, err
		}
		st, err = shared.Build()
		if err != nil {
			return RowOut{}, err
		}
		o := opts(st, 0)
		o.RunID = "camp-t0"
		results[0], err = exec.Execute(w, src(0), o)
		if err != nil {
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
		d      drill
		expect exec.DegradeLevel
	}{
		{
			name: "clean store",
			d: drill{
				plan:  store.FaultPlan{Seed: 41},
				retry: exec.ExpBackoff{Base: 0.5, MaxAttempts: 4},
			},
			expect: exec.LevelHealthy,
		},
		{
			name: "latency drift",
			d: drill{
				plan:   store.FaultPlan{Seed: 42, MeanLatency: 3, WriteFail: 0.2},
				retry:  exec.ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 5},
				replan: true,
			},
			expect: exec.LevelDegraded,
		},
		{
			name: "primary dead, secondary alive",
			d: drill{
				plan:      store.FaultPlan{Seed: 43, WriteFail: 1},
				secondary: true,
				retry:     exec.FixedRetry{Attempts: 1},
			},
			expect: exec.LevelFailover,
		},
		{
			name: "primary dead, no secondary",
			d: drill{
				plan:  store.FaultPlan{Seed: 44, WriteFail: 1},
				retry: exec.FixedRetry{Attempts: 1},
			},
			expect: exec.LevelDown,
		},
		{
			name: "quota exhausted",
			d: drill{
				plan:  store.FaultPlan{Seed: 45},
				quota: &store.Quota{MaxBytes: 16},
				retry: exec.ExpBackoff{Base: 0.5, MaxAttempts: 4},
			},
			expect: exec.LevelDown,
		},
	}
	for i, ld := range ladderDrills {
		ld, salt := ld, uint64(100+i)
		p.Job(ladder, func(s *rng.Stream) (RowOut, error) {
			w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
			if err != nil {
				return RowOut{}, err
			}
			res, err := execute(ld.d, newStack(ld.d), w,
				exec.NewKeyedSource(failure.Exponential{Lambda: lambda}, 701, salt), 0)
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
