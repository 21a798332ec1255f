// Package engine executes experiment scenarios (internal/expt) on a
// configurable worker pool. It fans work out at two grains: across
// experiments and, within each experiment, across its independent row
// jobs — every job across every selected scenario feeds one shared pool,
// so a single slow experiment cannot serialize the run.
//
// Determinism contract (see DESIGN.md): each row job draws randomness
// only from a stream keyed by (seed, experiment ID, job index), and job
// outputs are placed by index, never by completion order. A run with
// Workers=1 and a run with Workers=N therefore produce bit-identical
// tables for the same seed, up to cells explicitly marked volatile
// (wall-clock measurements). internal/expt.Execute is the serial
// reference the Runner is tested against.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expt"
	"repro/internal/expt/result"
	"repro/internal/par"
)

// Runner executes scenarios on a worker pool.
type Runner struct {
	// Workers is the pool size; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// Result is one scenario's outcome.
type Result struct {
	Info   expt.Info
	Tables []*result.Table
	// Err is the scenario's failure, if any: the planning error, the
	// lowest-indexed job error (a deterministic choice, independent of
	// completion order), or the assembly error.
	Err error
	// Elapsed is the wall-clock span from the scenario's plan start to
	// its assembly end. Under a shared pool spans overlap across
	// scenarios, so these do not sum to the run's wall-clock.
	Elapsed time.Duration
}

// task is one unit for the pool: a row job of one scenario.
type task struct {
	scen, job int
}

// state tracks one scenario through the run.
type state struct {
	info    expt.Info
	plan    *expt.Plan
	planErr error
	outs    []expt.RowOut
	errs    []error // per-job errors, picked lowest-index-first
	start   time.Time
	// pending counts unfinished jobs; the worker that retires the last
	// one assembles the scenario.
	pending atomic.Int64
}

// Run executes the scenarios and returns their results in input order.
// Planning, row jobs, and assembly all run on the pool; results are
// deterministic per the package contract.
func (r Runner) Run(cfg expt.Config, scens []expt.Scenario) []Result {
	return r.RunStream(cfg, scens, nil)
}

// RunStream is Run with incremental delivery: emit (if non-nil) is
// called once per scenario, in input order, as soon as that scenario
// and all its predecessors have completed — so a consumer can render
// E1's tables while E9 is still simulating, the way the old serial
// harness streamed its output. emit runs on a single goroutine; the
// emitted Result is identical to the corresponding Run return value.
func (r Runner) RunStream(cfg expt.Config, scens []expt.Scenario, emit func(Result)) []Result {
	states := make([]*state, len(scens))
	results := make([]Result, len(scens))
	completed := make([]chan struct{}, len(scens))
	for i := range completed {
		completed[i] = make(chan struct{})
	}
	// finish assembles scenario i (or records its error) and releases it
	// to the in-order emitter. Called exactly once per scenario.
	finish := func(i int) {
		st := states[i]
		results[i].Info = st.info
		if st.planErr != nil {
			results[i].Err = fmt.Errorf("expt: %s: plan: %w", st.info.ID, st.planErr)
		} else {
			for j, err := range st.errs {
				if err != nil {
					results[i].Err = fmt.Errorf("expt: %s: job %d: %w", st.info.ID, j, err)
					break
				}
			}
		}
		if results[i].Err == nil {
			tables, err := st.plan.Assemble(st.outs)
			if err != nil {
				results[i].Err = fmt.Errorf("expt: %s: %w", st.info.ID, err)
			} else {
				results[i].Tables = tables
			}
		}
		results[i].Elapsed = time.Since(st.start)
		close(completed[i])
	}

	var emitted sync.WaitGroup
	if emit != nil {
		emitted.Add(1)
		go func() {
			defer emitted.Done()
			for i := range scens {
				<-completed[i]
				emit(results[i])
			}
		}()
	}

	// Phase 1: plan every scenario (bounded fan-out across experiments).
	par.Each(r.Workers, len(scens), func(_, i int) error {
		st := &state{info: scens[i].Info(), start: time.Now()}
		plan, err := scens[i].Plan(cfg)
		if err != nil {
			st.planErr = err
		} else {
			st.plan = plan
			st.outs = make([]expt.RowOut, len(plan.Jobs))
			st.errs = make([]error, len(plan.Jobs))
			st.pending.Store(int64(len(plan.Jobs)))
		}
		states[i] = st
		return nil
	})

	// Phase 2: one shared pool over every row job of every scenario. A
	// scenario is assembled by whichever worker retires its last job, so
	// early experiments stream out while later ones are still running.
	var tasks []task
	for i, st := range states {
		if st.plan == nil || len(st.plan.Jobs) == 0 {
			finish(i)
			continue
		}
		for j := range st.plan.Jobs {
			tasks = append(tasks, task{scen: i, job: j})
		}
	}
	par.Each(r.Workers, len(tasks), func(_, k int) error {
		tk := tasks[k]
		st := states[tk.scen]
		s := expt.JobStream(cfg, st.info.ID, tk.job)
		out, err := st.plan.Jobs[tk.job].Run(s)
		if err != nil {
			st.errs[tk.job] = err
		} else {
			st.outs[tk.job] = out
		}
		if st.pending.Add(-1) == 0 {
			finish(tk.scen)
		}
		return nil
	})

	emitted.Wait()
	return results
}

// RunAll executes every registered experiment.
func (r Runner) RunAll(cfg expt.Config) []Result {
	return r.Run(cfg, expt.All())
}

// FirstError returns the first failed result in order, or nil.
func FirstError(results []Result) error {
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}
