// Package sim is the discrete-event execution simulator: it replays a
// checkpoint plan against a sampled failure process, reproducing exactly
// the paper's execution model — segments of work ending in checkpoints,
// rollback to the last checkpoint on failure, a failure-free downtime D,
// and recoveries during which failures may strike again.
//
// The simulator is the substitute for the physical platform the paper
// reasons about (see DESIGN.md): Monte-Carlo averages over runs converge
// to the expectations the analytical formulas predict, which is how
// experiments E1/E2 validate Proposition 1 and experiment E11 evaluates
// the general-law heuristics the closed forms cannot cover.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ErrTooManyFailures is returned when a single run exceeds its failure
// budget — the guard against non-terminating configurations (e.g. a
// deterministic failure law with inter-arrival shorter than the recovery).
var ErrTooManyFailures = errors.New("sim: failure budget exhausted; execution cannot make progress")

// RunStats decomposes one simulated execution.
type RunStats struct {
	// Makespan is the total wall-clock time of the run.
	Makespan float64
	// Failures counts failures (during work, checkpointing or recovery).
	Failures int
	// Lost is time spent computing work or checkpoints that was wasted.
	Lost float64
	// Downtime is total downtime served.
	Downtime float64
	// RecoveryTime is total time spent in recoveries (including failed
	// recovery attempts).
	RecoveryTime float64
	// Useful is the productive time: work plus checkpoints that stuck.
	Useful float64
}

// Options tunes a run.
type Options struct {
	// Downtime is D, the failure-free delay after every failure.
	Downtime float64
	// MaxFailures bounds the failures tolerated in one run (0 means the
	// default of 10 million).
	MaxFailures int
	// Workers is the goroutine count every Monte-Carlo entry point
	// (MonteCarlo, MonteCarloPlan, CampaignPlans and the sharded
	// campaigns) spreads its blocks over; ≤ 0 means
	// runtime.GOMAXPROCS(0). Blocks own their streams, so it bounds
	// wall-clock time and concurrency only: no worker count enters any
	// result.
	Workers int
}

func (o Options) maxFailures() int {
	if o.MaxFailures <= 0 {
		return 10_000_000
	}
	return o.MaxFailures
}

// Run executes the segments in sequence against proc. Each segment is
// attempted as an atomic unit of duration Work+Checkpoint; a failure
// during the attempt wastes the time elapsed, costs a downtime (during
// which no failure can occur, per the model) plus a recovery of the
// segment's Recovery length (during which failures can occur), and the
// attempt restarts from the segment's beginning.
func Run(segments []core.Segment, proc failure.Process, opts Options) (RunStats, error) {
	if opts.Downtime < 0 {
		return RunStats{}, fmt.Errorf("sim: negative downtime %v", opts.Downtime)
	}
	var rs RunStats
	budget := opts.maxFailures()
	for _, seg := range segments {
		dur := seg.Work + seg.Checkpoint
		for {
			next := proc.NextFailure()
			if next >= dur {
				// Attempt succeeds; the checkpointed state is a renewal point.
				proc.Advance(dur)
				rs.Makespan += dur
				rs.Useful += dur
				break
			}
			// Failure mid-attempt.
			proc.ObserveFailure()
			rs.Makespan += next
			rs.Lost += next
			rs.Failures++
			if rs.Failures > budget {
				return rs, ErrTooManyFailures
			}
			// Downtime: failure-free by assumption; process clocks frozen.
			rs.Makespan += opts.Downtime
			rs.Downtime += opts.Downtime
			// Recovery: failures possible; repeat until one recovery
			// completes.
			for {
				rnext := proc.NextFailure()
				if rnext >= seg.Recovery {
					proc.Advance(seg.Recovery)
					rs.Makespan += seg.Recovery
					rs.RecoveryTime += seg.Recovery
					break
				}
				proc.ObserveFailure()
				rs.Makespan += rnext
				rs.RecoveryTime += rnext
				rs.Failures++
				if rs.Failures > budget {
					return rs, ErrTooManyFailures
				}
				rs.Makespan += opts.Downtime
				rs.Downtime += opts.Downtime
			}
		}
	}
	return rs, nil
}

// ProcessFactory builds a failure process, drawing its randomness from
// the supplied stream. The Monte-Carlo campaigns call a factory once
// per stream and, when the returned process implements
// failure.Resettable (all built-in processes do), obtain per-run
// freshness by calling Reset() between runs rather than re-invoking the
// factory. Custom factories whose processes must differ structurally
// per run (not just re-draw their clocks) should return a process that
// does NOT implement Resettable; the campaigns then fall back to one
// factory call per run.
type ProcessFactory func(r *rng.Stream) failure.Process

// ExponentialFactory returns a factory for the paper's core model: a
// platform-level Exponential process of rate lambda.
func ExponentialFactory(lambda float64) ProcessFactory {
	return func(r *rng.Stream) failure.Process {
		return failure.NewExponentialProcess(lambda, r)
	}
}

// SuperposedFactory returns a factory for a platform of n processors with
// the given per-processor law and rejuvenation policy, backed by the
// indexed-heap failure.SuperposedProcess (O(1) Advance/NextFailure,
// O(log p) ObserveFailure).
func SuperposedFactory(dist failure.Distribution, n int, policy failure.RejuvenationPolicy) ProcessFactory {
	return func(r *rng.Stream) failure.Process {
		sp, err := failure.NewSuperposedProcess(dist, n, policy, r)
		if err != nil {
			panic(err) // n validated by callers; see MonteCarlo
		}
		return sp
	}
}

// ScanFactory is SuperposedFactory backed by the O(p)-per-event
// failure.ScanProcess reference implementation. It exists for the
// scan-vs-heap comparisons of E14 and cmd/benchtraj; both factories are
// sample-identical, so campaigns on either produce the same results.
func ScanFactory(dist failure.Distribution, n int, policy failure.RejuvenationPolicy) ProcessFactory {
	return func(r *rng.Stream) failure.Process {
		sp, err := failure.NewScanProcess(dist, n, policy, r)
		if err != nil {
			panic(err) // n validated by callers; see MonteCarlo
		}
		return sp
	}
}

// MCResult aggregates a Monte-Carlo campaign.
type MCResult struct {
	// Makespan summarizes the per-run makespans.
	Makespan stats.Summary
	// Failures summarizes the per-run failure counts.
	Failures stats.Summary
	// Lost, Downtime, RecoveryTime and Useful summarize the per-run
	// decompositions.
	Lost, Downtime, RecoveryTime, Useful stats.Summary
	// Runs is the number of completed runs.
	Runs int
}

// add folds one run's decomposition into the aggregate.
func (m *MCResult) add(rs RunStats) {
	m.Makespan.Add(rs.Makespan)
	m.Failures.Add(float64(rs.Failures))
	m.Lost.Add(rs.Lost)
	m.Downtime.Add(rs.Downtime)
	m.RecoveryTime.Add(rs.RecoveryTime)
	m.Useful.Add(rs.Useful)
	m.Runs++
}

// merge folds another aggregate into this one (block-order merges keep
// results deterministic).
func (m *MCResult) merge(other MCResult) {
	m.Makespan.Merge(other.Makespan)
	m.Failures.Merge(other.Failures)
	m.Lost.Merge(other.Lost)
	m.Downtime.Merge(other.Downtime)
	m.RecoveryTime.Merge(other.RecoveryTime)
	m.Useful.Merge(other.Useful)
	m.Runs += other.Runs
}

// MonteCarlo simulates the segments runs times and aggregates: it is
// CampaignPlans over the one candidate, which runs the process directly
// (no trace is recorded). Its keyed blocks spread over opts.Workers
// goroutines and fold in block order, so results depend on the seed
// alone — never on opts.Workers or the host's core count.
func MonteCarlo(segments []core.Segment, factory ProcessFactory, opts Options, runs int, seed *rng.Stream) (MCResult, error) {
	res, err := CampaignPlans([][]core.Segment{segments}, factory, opts, runs, seed)
	if err != nil {
		return MCResult{}, err
	}
	return res.Results[0], nil
}

// MonteCarloPlan evaluates a chain problem's checkpoint vector by
// simulation: it splits the problem into segments and runs MonteCarlo.
// The downtime always comes from the problem's model; MaxFailures is
// honoured as given.
func MonteCarloPlan(cp *core.ChainProblem, checkpointAfter []bool, factory ProcessFactory, opts Options, runs int, seed *rng.Stream) (MCResult, error) {
	segs, err := cp.Segments(checkpointAfter)
	if err != nil {
		return MCResult{}, err
	}
	opts.Downtime = cp.Model.Downtime
	return MonteCarlo(segs, factory, opts, runs, seed)
}
