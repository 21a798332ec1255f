package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/numeric"
	"repro/internal/rng"
)

func TestRunNoFailures(t *testing.T) {
	// A deterministic failure far beyond the plan: makespan is exactly
	// the failure-free time.
	segs := []core.Segment{
		{Work: 5, Checkpoint: 1, Recovery: 2},
		{Work: 3, Checkpoint: 0.5, Recovery: 2},
	}
	proc, err := failure.NewTraceProcess([]float64{1e9})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(segs, proc, Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Failures != 0 {
		t.Errorf("failures = %d", rs.Failures)
	}
	if !numeric.AlmostEqual(rs.Makespan, 9.5, 1e-12) {
		t.Errorf("makespan = %v, want 9.5", rs.Makespan)
	}
	if rs.Useful != rs.Makespan || rs.Lost != 0 {
		t.Errorf("decomposition wrong: %+v", rs)
	}
}

func TestRunScriptedFailure(t *testing.T) {
	// One failure after 2 units, then quiet: the run must pay
	// 2 (lost) + D + R + full segment.
	segs := []core.Segment{{Work: 5, Checkpoint: 1, Recovery: 3}}
	proc, err := failure.NewTraceProcess([]float64{2, 1e9})
	if err != nil {
		t.Fatal(err)
	}
	const d = 0.5
	rs, err := Run(segs, proc, Options{Downtime: d})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Failures != 1 {
		t.Fatalf("failures = %d, want 1", rs.Failures)
	}
	want := 2 + d + 3 + 6.0
	if !numeric.AlmostEqual(rs.Makespan, want, 1e-12) {
		t.Errorf("makespan = %v, want %v", rs.Makespan, want)
	}
	if rs.Lost != 2 || rs.Downtime != d || rs.RecoveryTime != 3 || rs.Useful != 6 {
		t.Errorf("decomposition wrong: %+v", rs)
	}
}

func TestRunFailureDuringRecovery(t *testing.T) {
	// Failure at 1 (during work), then at 1 again (mid-recovery of
	// length 3), then quiet.
	segs := []core.Segment{{Work: 4, Checkpoint: 0, Recovery: 3}}
	proc, err := failure.NewTraceProcess([]float64{1, 1, 1e9})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(segs, proc, Options{Downtime: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Failures != 2 {
		t.Fatalf("failures = %d, want 2", rs.Failures)
	}
	// 1 lost + D + (1 failed recovery + D + 3 full recovery) + 4 work.
	want := 1 + 0.25 + 1 + 0.25 + 3 + 4.0
	if !numeric.AlmostEqual(rs.Makespan, want, 1e-12) {
		t.Errorf("makespan = %v, want %v", rs.Makespan, want)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	// Failures every 1 unit but recovery needs 2: never progresses.
	segs := []core.Segment{{Work: 4, Checkpoint: 0, Recovery: 2}}
	proc, err := failure.NewTraceProcess([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(segs, proc, Options{Downtime: 0, MaxFailures: 100})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Errorf("want ErrTooManyFailures, got %v", err)
	}
}

func TestRunRejectsNegativeDowntime(t *testing.T) {
	if _, err := Run(nil, failure.NewExponentialProcess(1, rng.New(1)), Options{Downtime: -1}); err == nil {
		t.Error("negative downtime should fail")
	}
}

// TestEntryPointsRejectNonFiniteDowntime: a NaN or infinite downtime is
// an error at every Monte-Carlo entry point, before any block runs; it
// never reaches a summary as NaN or a histogram as a panic.
func TestEntryPointsRejectNonFiniteDowntime(t *testing.T) {
	plans := [][]core.Segment{{{Work: 4, Checkpoint: 1, Recovery: 1}}, {{Work: 2, Checkpoint: 1, Recovery: 1}, {Work: 2, Checkpoint: 1, Recovery: 1}}}
	factory := ExponentialFactory(0.1)
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		opts := Options{Downtime: d, Workers: 2}
		so := ShardOptions{Options: opts, Seed: 1, Runs: 256, Shards: 2}
		entries := map[string]func() error{
			"MonteCarlo": func() error {
				_, err := MonteCarlo(plans[0], factory, opts, 256, rng.New(1))
				return err
			},
			"CampaignPlans": func() error {
				_, err := CampaignPlans(plans, factory, opts, 256, rng.New(1))
				return err
			},
			"CampaignPlansSharded": func() error {
				_, err := CampaignPlansSharded(plans, factory, so)
				return err
			},
			"CampaignPlansAdaptive": func() error {
				_, err := CampaignPlansAdaptive(plans, factory, so, AdaptiveOptions{TargetWidth: 0.1, MaxRuns: 256})
				return err
			},
		}
		for name, run := range entries {
			if err := run(); err == nil || !strings.Contains(err.Error(), "downtime") {
				t.Errorf("%s with downtime %v: error %v, want a downtime error", name, d, err)
			}
		}
	}
}

func TestMonteCarloMatchesProposition1(t *testing.T) {
	// The headline validation (experiment E1 in miniature): the sample
	// mean of simulated makespans must agree with the closed form within
	// the 99.9% confidence interval.
	cases := []struct{ w, c, d, r, lambda float64 }{
		{10, 1, 0, 1, 0.05},
		{10, 1, 2, 3, 0.05},
		{100, 5, 1, 5, 0.01},
		{1, 0.1, 0.1, 0.1, 1.0},
		{50, 2, 0.5, 2, 0.002},
	}
	for _, cse := range cases {
		m, err := expectation.NewModel(cse.lambda, cse.d)
		if err != nil {
			t.Fatal(err)
		}
		want := m.ExpectedTime(cse.w, cse.c, cse.r)
		got, err := EstimateExpectedTime(cse.w, cse.c, cse.d, cse.r, cse.lambda, 60000, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Contains(want, 0.999) {
			t.Errorf("W=%v C=%v D=%v R=%v λ=%v: closed form %v outside CI %v ± %v",
				cse.w, cse.c, cse.d, cse.r, cse.lambda, want, got.Mean(), got.CI(0.999))
		}
	}
}

func TestEstimateLostMatchesEq4(t *testing.T) {
	m, _ := expectation.NewModel(0.1, 0)
	want := m.ExpectedLost(10, 2)
	got, err := EstimateLost(10, 2, 0.1, 200000, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(want, 0.999) {
		t.Errorf("E[Tlost] closed form %v outside CI %v ± %v", want, got.Mean(), got.CI(0.999))
	}
	if _, err := EstimateLost(0, 0, 0.1, 10, rng.New(1)); err == nil {
		t.Error("zero horizon should fail")
	}
}

func TestEstimateRecoveryMatchesEq5(t *testing.T) {
	m, _ := expectation.NewModel(0.2, 1.5)
	want := m.ExpectedRecovery(3)
	got, err := EstimateRecovery(1.5, 3, 0.2, 200000, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(want, 0.999) {
		t.Errorf("E[Trec] closed form %v outside CI %v ± %v", want, got.Mean(), got.CI(0.999))
	}
	if _, err := EstimateRecovery(-1, 1, 0.1, 10, rng.New(1)); err == nil {
		t.Error("negative downtime should fail")
	}
}

func TestMonteCarloPlanMatchesSegmentSum(t *testing.T) {
	// A multi-segment plan's simulated mean must match the sum of
	// Proposition 1 over segments (renewal argument).
	r := rng.New(41)
	g, err := dag.Chain(5, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := expectation.NewModel(0.08, 0.5)
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloPlan(cp, res.CheckpointAfter, ExponentialFactory(m.Lambda), Options{}, 60000, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !mc.Makespan.Contains(res.Expected, 0.999) {
		t.Errorf("DP expectation %v outside simulated CI %v ± %v",
			res.Expected, mc.Makespan.Mean(), mc.Makespan.CI(0.999))
	}
	if mc.Runs != 60000 {
		t.Errorf("runs = %d", mc.Runs)
	}
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	segs := []core.Segment{{Work: 5, Checkpoint: 1, Recovery: 1}}
	a, err := MonteCarlo(segs, ExponentialFactory(0.1), Options{Downtime: 0.5}, 5000, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(segs, ExponentialFactory(0.1), Options{Downtime: 0.5}, 5000, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan.Mean() != b.Makespan.Mean() || a.Failures.Mean() != b.Failures.Mean() {
		t.Error("same seed gave different results")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarlo(nil, ExponentialFactory(1), Options{}, 0, rng.New(1)); err == nil {
		t.Error("zero runs should fail")
	}
}

func TestMonteCarloPropagatesRunErrors(t *testing.T) {
	segs := []core.Segment{{Work: 4, Checkpoint: 0, Recovery: 2}}
	factory := func(r *rng.Stream) failure.Process {
		tp, _ := failure.NewTraceProcess([]float64{1})
		return tp
	}
	_, err := MonteCarlo(segs, factory, Options{MaxFailures: 10}, 4, rng.New(1))
	if !errors.Is(err, ErrTooManyFailures) {
		t.Errorf("want ErrTooManyFailures, got %v", err)
	}
}

func TestSuperposedExponentialEquivalence(t *testing.T) {
	// A platform of p Exponential processors behaves exactly like one
	// Exponential process of rate p·λproc (memorylessness): simulated
	// means must agree with the closed form built on λ = p·λproc.
	const procs = 4
	const lambdaProc = 0.01
	m, _ := expectation.NewModel(procs*lambdaProc, 0.5)
	want := m.ExpectedTime(20, 1, 2)
	e, _ := failure.NewExponential(lambdaProc)
	segs := []core.Segment{{Work: 20, Checkpoint: 1, Recovery: 2}}
	mc, err := MonteCarlo(segs, SuperposedFactory(e, procs, failure.RejuvenateFailedOnly),
		Options{Downtime: 0.5}, 60000, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if !mc.Makespan.Contains(want, 0.999) {
		t.Errorf("superposed mean %v ± %v vs closed form %v",
			mc.Makespan.Mean(), mc.Makespan.CI(0.999), want)
	}
}

func TestCascadeDowntimeBounds(t *testing.T) {
	// D(p) ≥ D always; for tiny λproc·D the lower bound is tight.
	got, err := CascadeDowntime(64, 1e-6, 1, 20000, rng.New(66))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean() < 1 {
		t.Errorf("cascade mean %v below D = 1", got.Mean())
	}
	if got.Mean() > 1.01 {
		t.Errorf("cascade mean %v should be ≈ D in the rare-failure regime", got.Mean())
	}
	// Cascades grow with λproc.
	heavy, err := CascadeDowntime(64, 1e-2, 1, 20000, rng.New(67))
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Mean() <= got.Mean() {
		t.Errorf("higher failure rate should lengthen cascades: %v vs %v", heavy.Mean(), got.Mean())
	}
	if _, err := CascadeDowntime(0, 1, 1, 10, rng.New(1)); err == nil {
		t.Error("zero processors should fail")
	}
	if _, err := CascadeDowntime(2, -1, 1, 10, rng.New(1)); err == nil {
		t.Error("negative rate should fail")
	}
	// Supercritical load (p·λproc·D ≥ 0.9): the busy period diverges and
	// the simulator must refuse rather than hang.
	if _, err := CascadeDowntime(65536, 1e-3, 1, 10, rng.New(1)); err == nil {
		t.Error("supercritical cascade should be rejected")
	}
}

func TestRunStatsDecompositionAddsUp(t *testing.T) {
	// Makespan must equal Useful + Lost + Downtime + RecoveryTime.
	segs := []core.Segment{
		{Work: 10, Checkpoint: 1, Recovery: 2},
		{Work: 5, Checkpoint: 0.5, Recovery: 1},
	}
	r := rng.New(88)
	for i := 0; i < 200; i++ {
		proc := failure.NewExponentialProcess(0.2, r)
		rs, err := Run(segs, proc, Options{Downtime: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		sum := rs.Useful + rs.Lost + rs.Downtime + rs.RecoveryTime
		if math.Abs(sum-rs.Makespan) > 1e-9 {
			t.Fatalf("decomposition %v ≠ makespan %v", sum, rs.Makespan)
		}
	}
}

// testChain builds an n-task random chain problem under rate lambda and
// downtime d.
func testChain(t *testing.T, n int, lambda, d float64) *core.ChainProblem {
	t.Helper()
	g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(101))
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(lambda, d)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestVarianceMatchesSimulation(t *testing.T) {
	// The analytic makespan variance (second-moment extension of
	// Proposition 1's recursion) must match the Monte-Carlo variance.
	cp := testChain(t, 6, 0.1, 0.5)
	res, err := core.SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	wantVar, err := cp.MakespanVariance(res.CheckpointAfter)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloPlan(cp, res.CheckpointAfter, ExponentialFactory(cp.Model.Lambda), Options{}, 120000, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	got := mc.Makespan.Variance()
	if math.Abs(got-wantVar)/wantVar > 0.05 {
		t.Errorf("simulated variance %v vs analytic %v (>5%% apart)", got, wantVar)
	}
}
