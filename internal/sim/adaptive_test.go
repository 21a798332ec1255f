package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// adaptiveTestPlans: a baseline, a near-twin (statistically hard to
// distinguish), and two clearly worse plans (separate immediately).
func adaptiveTestPlans() [][]core.Segment {
	seg := func(w, c, r float64) core.Segment { return core.Segment{Work: w, Checkpoint: c, Recovery: r} }
	return [][]core.Segment{
		{seg(5, 1, 0.5), seg(5, 1, 0.5)},                     // baseline
		{seg(5.001, 1, 0.5), seg(4.999, 1, 0.5)},             // near twin
		{seg(10, 1, 0.5)},                                    // fewer checkpoints
		{seg(2.5, 1, 0.5), seg(2.5, 1, 0.5), seg(5, 2, 0.5)}, // extra checkpoint cost
	}
}

// TestAdaptiveStopping pins the acceptance criterion: at equal final CI
// width, adaptive stopping spends at most half of what a fixed budget
// would — decided pairs stop sampling while the hard pair keeps going.
func TestAdaptiveStopping(t *testing.T) {
	plans := adaptiveTestPlans()
	factory := ExponentialFactory(0.08)
	so := ShardOptions{Options: Options{Downtime: 0.3, Workers: 1}, Seed: 31, Shards: 2}
	ao := AdaptiveOptions{
		TargetWidth: 0.002,
		InitialRuns: 1000,
		MaxRuns:     200_000,
	}
	res, err := CampaignPlansAdaptive(plans, factory, so, ao)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision[0] != DecisionBaseline {
		t.Errorf("candidate 0 decision %q", res.Decision[0])
	}
	for i := 1; i < len(plans); i++ {
		switch res.Decision[i] {
		case DecisionConverged:
			if res.Widths[i] > ao.TargetWidth {
				t.Errorf("candidate %d converged at width %v > target %v", i, res.Widths[i], ao.TargetWidth)
			}
		case DecisionSeparated:
			if m := math.Abs(res.Delta[i].Mean()); m <= res.Widths[i] {
				t.Errorf("candidate %d separated but |mean| %v ≤ width %v", i, m, res.Widths[i])
			}
		case DecisionBudget:
			if res.RunsPerCandidate[i] < ao.MaxRuns {
				t.Errorf("candidate %d hit budget at %d < MaxRuns %d", i, res.RunsPerCandidate[i], ao.MaxRuns)
			}
		default:
			t.Errorf("candidate %d undecided: %q", i, res.Decision[i])
		}
	}
	// The clearly-different plans must separate, and fast.
	for _, i := range []int{2, 3} {
		if res.Decision[i] != DecisionSeparated {
			t.Errorf("candidate %d: decision %q, want separated (delta mean %v ± %v)",
				i, res.Decision[i], res.Delta[i].Mean(), res.Widths[i])
		}
	}
	// The acceptance criterion: ≤ 50% of the fixed-budget cost.
	if res.Spent*2 > res.FixedSpent {
		t.Errorf("adaptive spent %d > 50%% of fixed budget %d", res.Spent, res.FixedSpent)
	}
	if res.Spent != sum(res.RunsPerCandidate) {
		t.Errorf("Spent %d inconsistent with per-candidate runs %v", res.Spent, res.RunsPerCandidate)
	}
	// Aggregates are consistent with the replication accounting.
	for i, r := range res.RunsPerCandidate {
		if res.Results[i].Runs != r {
			t.Errorf("candidate %d: %d aggregated runs, %d accounted", i, res.Results[i].Runs, r)
		}
		if int(res.Results[i].Makespan.N()) != r {
			t.Errorf("candidate %d: summary N %d vs runs %d", i, res.Results[i].Makespan.N(), r)
		}
		if got := res.Digests[i].N(); got != uint64(r) {
			t.Errorf("candidate %d: digest N %v vs runs %d", i, got, r)
		}
	}

	// Determinism: the whole adaptive procedure replays bitwise.
	again, err := CampaignPlansAdaptive(plans, factory, so, ao)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rounds != res.Rounds || again.Spent != res.Spent {
		t.Fatalf("rerun: %d rounds / %d spent vs %d / %d", again.Rounds, again.Spent, res.Rounds, res.Spent)
	}
	for i := range res.Results {
		if !sameMCResult(res.Results[i], again.Results[i]) || !sameSummary(res.Delta[i], again.Delta[i]) {
			t.Errorf("candidate %d: adaptive rerun differs", i)
		}
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func TestAdaptiveValidation(t *testing.T) {
	plans := adaptiveTestPlans()
	factory := ExponentialFactory(0.08)
	so := ShardOptions{Options: Options{Workers: 1}, Seed: 1, Shards: 1}
	good := AdaptiveOptions{TargetWidth: 0.1, MaxRuns: 1000}
	for name, tc := range map[string]struct {
		plans [][]core.Segment
		so    ShardOptions
		ao    AdaptiveOptions
		want  string
	}{
		"no width":    {plans, so, AdaptiveOptions{MaxRuns: 1000}, "target width"},
		"no budget":   {plans, so, AdaptiveOptions{TargetWidth: 0.1}, "MaxRuns"},
		"one plan":    {plans[:1], so, good, "baseline"},
		"spill set":   {plans, ShardOptions{Options: Options{Workers: 1}, Seed: 1, Shards: 1, SpillDir: t.TempDir()}, good, "not spillable"},
		"round taken": {plans, ShardOptions{Options: Options{Workers: 1}, Seed: 1, Shards: 1, Round: 3}, good, "round salt"},
	} {
		if _, err := CampaignPlansAdaptive(tc.plans, factory, tc.so, tc.ao); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", name, err, tc.want)
		}
	}
	// A trivially wide target converges everything in one round.
	res, err := CampaignPlansAdaptive(plans, factory, so, AdaptiveOptions{TargetWidth: 1e6, InitialRuns: 100, MaxRuns: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("wide target took %d rounds", res.Rounds)
	}
	for i := 1; i < len(plans); i++ {
		if res.Decision[i] != DecisionConverged {
			t.Errorf("candidate %d: %q", i, res.Decision[i])
		}
	}
}
