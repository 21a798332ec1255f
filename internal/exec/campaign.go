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
	// runtime.GOMAXPROCS(0). Per-run results are Workers-independent;
	// the merged summaries are deterministic for a given (Seed, Workers)
	// pair (summary merging is not floating-point associative).
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
	// A static partition: worker wk runs a contiguous range of runs,
	// the first Runs%workers ranges one run longer.
	workers := par.Workers(opts.Workers, opts.Runs)
	type partial struct{ makespan, failures stats.Summary }
	parts := make([]partial, workers)
	err := par.Each(workers, workers, func(_, wk int) error {
		per, extra := opts.Runs/workers, opts.Runs%workers
		first, count := wk*per+min(wk, extra), per
		if wk < extra {
			count++
		}
		p := &parts[wk]
		for r := first; r < first+count; r++ {
			src := NewKeyedSource(dist, opts.Seed, uint64(r)+1)
			res, err := Execute(w, src, Options{Downtime: opts.Downtime})
			if err != nil {
				return fmt.Errorf("exec: campaign run %d: %w", r, err)
			}
			p.makespan.Add(res.Makespan)
			p.failures.Add(float64(res.Failures))
		}
		return nil
	})
	if err != nil {
		return CampaignResult{}, err
	}
	out := CampaignResult{Runs: opts.Runs}
	for i := range parts {
		// Merge in worker order: deterministic for a (Seed, Workers) pair.
		out.Makespan.Merge(parts[i].makespan)
		out.Failures.Merge(parts[i].failures)
	}
	return out, nil
}
