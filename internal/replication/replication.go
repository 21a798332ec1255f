// Package replication models group replication, the mechanism the
// paper's related-work section points to as complementary to
// checkpoint-recovery (refs [16], [29], [30]): the platform is split into
// g groups that all execute the same segment in lockstep; the segment
// succeeds as soon as any group completes it, and only if every group
// fails before completing does the attempt restart (after downtime and
// recovery).
//
// The expected time depends on the partial overlap of group failures
// within an attempt, so it comes from simulation.
package replication

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Config describes a replicated execution.
type Config struct {
	// Groups is g ≥ 1, the number of replica groups.
	Groups int
	// LambdaGroup is each group's failure rate (for a platform of p
	// processors split evenly, λ_group = (p/g)·λ_proc).
	LambdaGroup float64
	// Downtime is D, served when an entire attempt fails.
	Downtime float64
	// Recovery is R, the rollback cost when an entire attempt fails;
	// failures can strike during recovery, as in the core model.
	Recovery float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Groups < 1 {
		return fmt.Errorf("replication: need at least one group, got %d", c.Groups)
	}
	if c.LambdaGroup <= 0 || math.IsInf(c.LambdaGroup, 0) || math.IsNaN(c.LambdaGroup) {
		return fmt.Errorf("replication: group failure rate must be positive and finite, got %v", c.LambdaGroup)
	}
	if c.Downtime < 0 || c.Recovery < 0 {
		return fmt.Errorf("replication: negative downtime (%v) or recovery (%v)", c.Downtime, c.Recovery)
	}
	return nil
}

// SimResult summarizes simulated replicated executions.
type SimResult struct {
	// Makespan summarizes the total times.
	Makespan stats.Summary
	// Attempts summarizes attempts per run.
	Attempts stats.Summary
}

// Simulate estimates the exact expected time of work l plus checkpoint
// ckpt under the configuration by Monte-Carlo: each attempt draws one
// failure time per group; the attempt succeeds if the maximum-surviving
// group outlasts the attempt, otherwise the wasted time is the latest
// group death (work stops when the last replica dies).
func (c Config) Simulate(l, ckpt float64, runs int, seed *rng.Stream) (SimResult, error) {
	if err := c.Validate(); err != nil {
		return SimResult{}, err
	}
	if runs <= 0 {
		return SimResult{}, fmt.Errorf("replication: run count must be positive, got %d", runs)
	}
	dur := l + ckpt
	var out SimResult
	for i := 0; i < runs; i++ {
		total := 0.0
		attempts := 0
		for {
			attempts++
			// Latest group death within this attempt; success if any
			// group survives the full duration.
			survived := false
			latest := 0.0
			for gset := 0; gset < c.Groups; gset++ {
				fail := seed.ExpFloat64() / c.LambdaGroup
				if fail >= dur {
					survived = true
					continue
				}
				if fail > latest {
					latest = fail
				}
			}
			if survived {
				total += dur
				break
			}
			total += latest + c.Downtime
			// Recovery with failures possible (all groups together at
			// the platform rate).
			lambdaAll := c.LambdaGroup * float64(c.Groups)
			for {
				f := seed.ExpFloat64() / lambdaAll
				if f >= c.Recovery {
					total += c.Recovery
					break
				}
				total += f + c.Downtime
			}
			if attempts > 10_000_000 {
				return SimResult{}, fmt.Errorf("replication: no progress after %d attempts", attempts)
			}
		}
		out.Makespan.Add(total)
		out.Attempts.Add(float64(attempts))
	}
	return out, nil
}

// BreakEvenGroups scans g ∈ [1, maxGroups] for the group count minimizing
// the simulated expected time of a segment, holding the total processor
// pool fixed: with g groups, each group runs the work in parallel on p/g
// processors, so the work takes l·g/1 per-group time under perfect
// parallelism... — more precisely the caller supplies workAt(g), the
// per-attempt work duration when g groups split the pool, capturing the
// workload model. Replication trades throughput (fewer processors per
// group → longer attempts) for resilience (more independent survivors).
func BreakEvenGroups(maxGroups int, lambdaProcTotal, downtime, recovery, ckpt float64, workAt func(g int) float64, runs int, seed *rng.Stream) (int, []float64, error) {
	if maxGroups < 1 {
		return 0, nil, fmt.Errorf("replication: maxGroups must be ≥ 1, got %d", maxGroups)
	}
	times := make([]float64, 0, maxGroups)
	bestG, bestT := 1, math.Inf(1)
	for g := 1; g <= maxGroups; g++ {
		cfg := Config{
			Groups:      g,
			LambdaGroup: lambdaProcTotal / float64(g),
			Downtime:    downtime,
			Recovery:    recovery,
		}
		res, err := cfg.Simulate(workAt(g), ckpt, runs, seed.Split())
		if err != nil {
			return 0, nil, err
		}
		t := res.Makespan.Mean()
		times = append(times, t)
		if t < bestT {
			bestG, bestT = g, t
		}
	}
	return bestG, times, nil
}
