package sim

// This file is the common-random-number (CRN) batch API: a comparator
// campaign evaluates S candidate plans or policies against the *same*
// replicated stochastic environments, instead of resampling the failure
// process once per candidate.
//
// Each replication records the platform's inter-failure gap sequence once
// (failure.RecordedTrace, extended lazily as the longest candidate needs
// it) and replays it through every candidate via failure.TraceCursor.
// That is S× fewer distribution samples than independent campaigns — for
// a superposed platform of p processors each replication saves (S−1)·p
// clock draws alone — and, because candidate makespans within a
// replication are positively correlated, the paired strategy deltas
// Δᵢ = makespanᵢ − makespan₀ have far lower variance than differences of
// independent means: the classic CRN variance-reduction argument. The
// CampaignResult carries both the per-candidate aggregates and the
// paired-difference summaries.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// CampaignResult aggregates a common-random-number comparator campaign.
type CampaignResult struct {
	// Results holds one Monte-Carlo aggregate per candidate, indexed like
	// the candidate slice passed in. Marginally, each is distributed
	// exactly as an independent MonteCarlo of the same factory (pinned by
	// a KS test); only the *coupling* between candidates differs.
	Results []MCResult
	// Delta summarizes the per-replication paired makespan differences
	// candidate i − candidate 0. Delta[0] is identically zero; for i > 0
	// the summary's CI is the variance-reduced strategy comparison, and
	// its StdDev measures how strongly the common environment couples the
	// candidates.
	Delta []stats.Summary
	// Runs is the number of completed replications.
	Runs int
	// Digests holds per-candidate makespan t-digests when the campaign
	// ran through the sharded pipeline (CampaignPlansSharded /
	// MergeShards); nil from the legacy worker-partitioned entry
	// points. Digest quantiles are pinned in quantile space — not
	// bitwise — across shard counts; see stats.TDigest.
	Digests []*stats.TDigest
}

// CampaignPlans runs a CRN comparator campaign over static plans: each
// replication records one failure trace from factory and replays it
// across every plan's segments. Replications are distributed over
// opts.Workers goroutines exactly like MonteCarlo runs; results are
// deterministic for a given (seed, Workers) pair.
func CampaignPlans(plans [][]core.Segment, factory ProcessFactory, opts Options, runs int, seed *rng.Stream) (CampaignResult, error) {
	if len(plans) == 0 {
		return CampaignResult{}, fmt.Errorf("sim: campaign needs at least one candidate plan")
	}
	return campaign(len(plans), func(cand int, proc failure.Process) (RunStats, error) {
		return Run(plans[cand], proc, opts)
	}, factory, opts, runs, seed)
}

// campaign is the shared CRN engine: worker partitioning as in
// MonteCarlo, one RecordedTrace per worker reused across replications
// (allocation-free in steady state when the factory's process is
// Resettable), candidates replayed serially within each replication so
// trace extension order — and hence the stream draw order — is
// deterministic.
func campaign(cands int, exec func(cand int, proc failure.Process) (RunStats, error), factory ProcessFactory, opts Options, runs int, seed *rng.Stream) (CampaignResult, error) {
	if runs <= 0 {
		return CampaignResult{}, fmt.Errorf("sim: run count must be positive, got %d", runs)
	}
	shares := opts.shareRuns(runs, seed)
	type partial struct {
		res   []MCResult
		delta []stats.Summary
	}
	parts := make([]partial, len(shares))
	err := par.Each(len(shares), len(shares), func(_, w int) error {
		count, r := shares[w].count, shares[w].r
		res := make([]MCResult, cands)
		delta := make([]stats.Summary, cands)
		makespans := make([]float64, cands)
		src := factory(r)
		_, resettable := src.(failure.Resettable)
		trace := failure.NewRecordedTrace(src)
		cursor := trace.Cursor()
		for rep := 0; rep < count; rep++ {
			if rep > 0 {
				if resettable {
					trace.Reset()
				} else {
					// Processes that must differ structurally per
					// replication: fall back to one factory call each, as
					// MonteCarlo does.
					src = factory(r)
					trace = failure.NewRecordedTrace(src)
					cursor = trace.Cursor()
				}
			}
			for cand := 0; cand < cands; cand++ {
				cursor.Reset()
				rs, err := exec(cand, cursor)
				if err != nil {
					return err
				}
				res[cand].add(rs)
				makespans[cand] = rs.Makespan
			}
			for cand := range delta {
				delta[cand].Add(makespans[cand] - makespans[0])
			}
		}
		parts[w] = partial{res: res, delta: delta}
		return nil
	})
	if err != nil {
		return CampaignResult{}, err
	}
	out := CampaignResult{
		Results: make([]MCResult, cands),
		Delta:   make([]stats.Summary, cands),
	}
	for _, p := range parts {
		for i := range out.Results {
			out.Results[i].merge(p.res[i])
			out.Delta[i].Merge(p.delta[i])
		}
	}
	out.Runs = out.Results[0].Runs
	return out, nil
}
