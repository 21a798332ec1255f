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
	// MergeShards); nil from CampaignPlans. Digest quantiles are
	// pinned in quantile space — not bitwise — across shard counts; see
	// stats.TDigest.
	Digests []*stats.TDigest
}

// CampaignPlans runs a CRN comparator campaign over static plans: each
// replication records one failure trace from factory and replays it
// across every plan's segments. It runs the block pipeline's CRN loop
// over one split of the seed stream, replications in order, so results
// depend on the seed alone — never on opts.Workers or the host's core
// count.
func CampaignPlans(plans [][]core.Segment, factory ProcessFactory, opts Options, runs int, seed *rng.Stream) (CampaignResult, error) {
	if len(plans) == 0 {
		return CampaignResult{}, fmt.Errorf("sim: campaign needs at least one candidate plan")
	}
	if runs <= 0 {
		return CampaignResult{}, fmt.Errorf("sim: run count must be positive, got %d", runs)
	}
	agg, err := replicate(plans, factory, opts, seed.Split(), runs, nil)
	if err != nil {
		return CampaignResult{}, err
	}
	return CampaignResult{Results: agg.Results, Delta: agg.Delta, Runs: runs}, nil
}
