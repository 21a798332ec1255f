package exec

import (
	"fmt"

	"repro/internal/failure"
	"repro/internal/par"
	"repro/internal/stats"
)

// CampaignOptions tunes a Monte-Carlo campaign of executions.
type CampaignOptions struct {
	// Runs is the number of independent executions.
	Runs int
	// Seed drives every run: run r uses NewKeyedSource(dist, Seed, r+1),
	// so the campaign is deterministic for a given Seed regardless of
	// scheduling — each run's failure sequence depends only on (Seed, r).
	Seed uint64
	// Workers fans runs out over goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0). Per-run results are folded in run order,
	// so the summaries do not depend on Workers.
	Workers int
	// Downtime is each run's downtime after a failure (Options).
	Downtime float64
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	// Makespan and Failures summarize per-run realized makespans and
	// failure counts.
	Makespan, Failures stats.Summary
	// Runs is the number of executions aggregated.
	Runs int
}

// Campaign executes the workload Runs times against independent keyed
// failure sources drawn from dist, without persistence (checkpoints
// exist to bound rollback, not to survive a crash), and aggregates the
// realized metrics. The mean of Makespan converges to
// w.Planned(model) when dist matches the model's failure law — the
// planned-vs-realized validation experiment E18 rides on exactly this.
func Campaign(w *Workload, dist failure.Distribution, opts CampaignOptions) (CampaignResult, error) {
	if opts.Runs <= 0 {
		return CampaignResult{}, fmt.Errorf("exec: campaign needs a positive run count, got %d", opts.Runs)
	}
	type run struct{ makespan, failures float64 }
	runs := make([]run, opts.Runs)
	err := par.Each(opts.Workers, opts.Runs, func(_, r int) error {
		src := NewKeyedSource(dist, opts.Seed, uint64(r)+1)
		res, err := Execute(w, src, Options{Downtime: opts.Downtime})
		if err != nil {
			return fmt.Errorf("exec: campaign run %d: %w", r, err)
		}
		runs[r] = run{res.Makespan, float64(res.Failures)}
		return nil
	})
	if err != nil {
		return CampaignResult{}, err
	}
	out := CampaignResult{Runs: opts.Runs}
	for _, r := range runs {
		out.Makespan.Add(r.makespan)
		out.Failures.Add(r.failures)
	}
	return out, nil
}
