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
	// Digests holds per-candidate makespan histograms from
	// CampaignPlansSharded and MergeShards; nil from CampaignPlans.
	// They merge exactly, so they too are bit-identical across shard
	// and worker counts; see stats.Histogram.
	Digests []*stats.Histogram
}

// newCampaignResult returns an empty aggregate over cands candidates.
func newCampaignResult(cands int) CampaignResult {
	return CampaignResult{Results: make([]MCResult, cands), Delta: make([]stats.Summary, cands)}
}

// foldBlock merges one block's partial aggregate into r. Every entry
// point folds blocks in global block order, which is what makes results
// bit-identical for any shard and worker count.
func (r *CampaignResult) foldBlock(blk BlockAggregate) {
	for c := range r.Results {
		r.Results[c].merge(blk.Results[c])
		r.Delta[c].Merge(blk.Delta[c])
	}
	r.Runs += blk.Runs
}

// CampaignPlans runs a CRN comparator campaign over static plans: each
// replication records one failure trace from factory and replays it
// across every plan's segments (a lone plan runs the process directly).
// It is the one-shard campaign seeded from one split of seed: runShard
// spreads its keyed blocks over opts.Workers goroutines and they fold in
// block order, so results depend on the seed alone — never on
// opts.Workers or the host's core count. It fills no digests.
func CampaignPlans(plans [][]core.Segment, factory ProcessFactory, opts Options, runs int, seed *rng.Stream) (CampaignResult, error) {
	so := ShardOptions{Options: opts, Seed: seed.Split().Uint64(), Runs: runs, Shards: 1}
	fp, err := so.resolve(plans)
	if err != nil {
		return CampaignResult{}, err
	}
	shard, err := runShard(plans, factory, so, fp, 0, false)
	if err != nil {
		return CampaignResult{}, err
	}
	out := newCampaignResult(fp.Candidates)
	for _, blk := range shard.Blocks {
		out.foldBlock(blk)
	}
	return out, nil
}
