package sim

// Adaptive comparator campaigns: instead of spending a fixed replication
// budget on every candidate, the campaign proceeds in geometric rounds
// and stops sampling a candidate as soon as its paired-delta confidence
// interval against the baseline is *decided* — narrower than the target
// width, or excluding zero (the pair is already statistically
// separated). Replications concentrate on the pairs that are still
// indistinguishable, which is where CRN variance reduction needs help;
// clearly-different pairs separate after the first round and stop
// costing anything.
//
// Each round is a sharded campaign over the still-active candidates,
// salted with a distinct Round so extension rounds draw fresh
// randomness; per-candidate aggregates merge across rounds in round
// order, so the whole procedure is deterministic for a given option set.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// Candidate decisions reported by AdaptiveResult.
const (
	// DecisionBaseline marks candidate 0, which samples as long as any
	// comparison is undecided.
	DecisionBaseline = "baseline"
	// DecisionConverged: the delta CI reached the target width without
	// excluding zero — the pair is indistinguishable at this precision.
	DecisionConverged = "converged"
	// DecisionSeparated: the delta CI excludes zero — the pair is
	// decided, no further precision needed.
	DecisionSeparated = "separated"
	// DecisionBudget: MaxRuns replications were spent with the CI still
	// wide and straddling zero.
	DecisionBudget = "budget"
)

// The stopping rule's fixed constants: the paired-delta CI level, and
// the factor each round's replication count grows by.
const (
	adaptiveConfidence = 0.99
	adaptiveGrowth     = 2
)

// AdaptiveOptions tunes the stopping rule.
type AdaptiveOptions struct {
	// TargetWidth is the half-width of the paired-delta CI (at the 0.99
	// level) below which a pair counts as converged. Must be positive.
	TargetWidth float64
	// InitialRuns is the first round's replication count (default 4096,
	// clamped to MaxRuns); each later round doubles it.
	InitialRuns int
	// MaxRuns bounds the replications spent per candidate. Must be
	// positive.
	MaxRuns int
}

func (ao AdaptiveOptions) resolve() (AdaptiveOptions, error) {
	if !(ao.TargetWidth > 0) {
		return ao, fmt.Errorf("sim: adaptive target width must be positive, got %v", ao.TargetWidth)
	}
	if ao.MaxRuns <= 0 {
		return ao, fmt.Errorf("sim: adaptive MaxRuns must be positive, got %d", ao.MaxRuns)
	}
	if ao.InitialRuns <= 0 {
		ao.InitialRuns = 4096
	}
	if ao.InitialRuns > ao.MaxRuns {
		ao.InitialRuns = ao.MaxRuns
	}
	return ao, nil
}

// AdaptiveResult reports an adaptive comparator campaign.
type AdaptiveResult struct {
	// Results, Delta and Digests aggregate per candidate exactly as in
	// CampaignResult, except candidates stop accumulating once decided
	// — compare Ns via RunsPerCandidate.
	Results []MCResult
	Delta   []stats.Summary
	Digests []*stats.Histogram
	// RunsPerCandidate is the replications each candidate consumed.
	RunsPerCandidate []int
	// Decision classifies each candidate: DecisionBaseline for index 0,
	// else DecisionConverged, DecisionSeparated or DecisionBudget.
	Decision []string
	// Widths is the final CI half-width of each candidate's delta
	// against the baseline (0 for the baseline itself).
	Widths []float64
	// Rounds is the number of rounds executed.
	Rounds int
	// Spent is the total replications executed across candidates —
	// the campaign's actual cost.
	Spent int
	// FixedSpent estimates what a fixed-budget design targeting the
	// same CI width on every pair would cost. A fixed design cannot
	// drop decided pairs, so it must size its per-candidate budget for
	// the pair needing the most replications to reach TargetWidth —
	// extrapolated as n·(width/target)² from each pair's measured
	// width at n replications, capped at MaxRuns — and pay that for
	// every candidate. Spent/FixedSpent is the adaptive saving; the
	// savings come precisely from not narrowing pairs whose CI already
	// excludes zero.
	FixedSpent int
}

// CampaignPlansAdaptive runs a sharded CRN comparator campaign with the
// adaptive stopping rule. Candidate 0 is the baseline; so.Runs is
// ignored (the rule decides), so.Round must be 0 (rounds own the salt)
// and so.SpillDir must be empty — adaptive campaigns re-plan every
// round, which a spill's fixed schedule cannot represent.
func CampaignPlansAdaptive(plans [][]core.Segment, factory ProcessFactory, so ShardOptions, ao AdaptiveOptions) (AdaptiveResult, error) {
	ao, err := ao.resolve()
	if err != nil {
		return AdaptiveResult{}, err
	}
	if len(plans) < 2 {
		return AdaptiveResult{}, fmt.Errorf("sim: adaptive campaign needs a baseline and at least one comparator, got %d plans", len(plans))
	}
	if so.SpillDir != "" {
		return AdaptiveResult{}, fmt.Errorf("sim: adaptive campaigns are not spillable — the round schedule is data-dependent; spill fixed-budget campaigns instead")
	}
	if so.Round != 0 {
		return AdaptiveResult{}, fmt.Errorf("sim: adaptive campaigns own the round salt; ShardOptions.Round must be 0, got %d", so.Round)
	}

	cands := len(plans)
	out := AdaptiveResult{
		Results:          make([]MCResult, cands),
		Delta:            make([]stats.Summary, cands),
		Digests:          newDigests(cands),
		RunsPerCandidate: make([]int, cands),
		Decision:         make([]string, cands),
		Widths:           make([]float64, cands),
	}
	out.Decision[0] = DecisionBaseline

	active := make([]int, 0, cands-1) // candidate indices still sampling
	for i := 1; i < cands; i++ {
		active = append(active, i)
	}
	roundRuns := ao.InitialRuns
	for len(active) > 0 {
		// Assemble the round's plan set: baseline + active candidates.
		roundPlans := make([][]core.Segment, 0, len(active)+1)
		roundPlans = append(roundPlans, plans[0])
		for _, i := range active {
			roundPlans = append(roundPlans, plans[i])
		}
		rso := so
		rso.Runs = roundRuns
		rso.Round = uint64(out.Rounds + 1)
		if rso.Shards > rso.Runs {
			rso.Shards = 1
		}
		res, err := CampaignPlansSharded(roundPlans, factory, rso)
		if err != nil {
			return AdaptiveResult{}, err
		}
		out.Rounds++
		out.Spent += roundRuns * (len(active) + 1)

		// Fold the round into the per-candidate accumulators (round
		// order: deterministic).
		fold := func(dst, src int) {
			out.Results[dst].merge(res.Results[src])
			out.Delta[dst].Merge(res.Delta[src])
			out.Digests[dst].Merge(res.Digests[src])
			out.RunsPerCandidate[dst] += roundRuns
		}
		fold(0, 0)
		for j, i := range active {
			fold(i, j+1)
		}

		// Apply the stopping rule.
		still := active[:0]
		for _, i := range active {
			d := &out.Delta[i]
			width := d.CI(adaptiveConfidence)
			out.Widths[i] = width
			mean := d.Mean()
			switch {
			case width <= ao.TargetWidth:
				out.Decision[i] = DecisionConverged
			case mean > width || mean < -width:
				out.Decision[i] = DecisionSeparated
			case out.RunsPerCandidate[i] >= ao.MaxRuns:
				out.Decision[i] = DecisionBudget
			default:
				still = append(still, i)
			}
		}
		active = still
		roundRuns *= adaptiveGrowth
		if len(active) > 0 {
			if spent := out.RunsPerCandidate[active[0]]; spent+roundRuns > ao.MaxRuns {
				roundRuns = ao.MaxRuns - spent
			}
		}
	}
	// The fixed-budget equivalent sizes every candidate's budget for
	// the pair that needs the most replications to reach TargetWidth
	// (CI width shrinks as 1/√n, so the requirement extrapolates as
	// n·(width/target)²), capped at MaxRuns like any committed budget.
	fixedRuns := 0
	for i := 1; i < cands; i++ {
		need := out.RunsPerCandidate[i]
		if w := out.Widths[i]; w > ao.TargetWidth {
			ratio := w / ao.TargetWidth
			est := float64(need) * ratio * ratio
			if est > float64(ao.MaxRuns) {
				need = ao.MaxRuns
			} else {
				need = int(math.Ceil(est))
			}
		}
		if need > fixedRuns {
			fixedRuns = need
		}
	}
	out.FixedSpent = fixedRuns * cands
	return out, nil
}
