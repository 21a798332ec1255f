package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

// campaignPlans builds two nearby candidate plans over the same 30-task
// chain: checkpoint every 2 tasks vs every 3.
func campaignPlans() [][]core.Segment {
	mk := func(every int) []core.Segment {
		var segs []core.Segment
		const tasks, w, c = 30, 2.0, 0.5
		for start := 0; start < tasks; start += every {
			n := every
			if start+n > tasks {
				n = tasks - start
			}
			segs = append(segs, core.Segment{Work: w * float64(n), Checkpoint: c, Recovery: c})
		}
		return segs
	}
	return [][]core.Segment{mk(2), mk(3)}
}

// TestCampaignIdenticalCandidates pins the CRN coupling: two identical
// plans see the same environment, so every paired delta is exactly zero
// and the two aggregates are bit-identical.
func TestCampaignIdenticalCandidates(t *testing.T) {
	plans := campaignPlans()
	res, err := CampaignPlans([][]core.Segment{plans[0], plans[0]},
		ExponentialFactory(0.05), Options{Downtime: 0.5, Workers: 2}, 2000, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2000 {
		t.Errorf("runs = %d", res.Runs)
	}
	if res.Results[0].Makespan.Mean() != res.Results[1].Makespan.Mean() {
		t.Errorf("identical candidates diverged: %v vs %v",
			res.Results[0].Makespan.Mean(), res.Results[1].Makespan.Mean())
	}
	if res.Delta[1].Mean() != 0 || res.Delta[1].Variance() != 0 {
		t.Errorf("identical candidates have nonzero delta: mean %v var %v",
			res.Delta[1].Mean(), res.Delta[1].Variance())
	}
	if res.Delta[0].Mean() != 0 {
		t.Errorf("Delta[0] must be identically zero, got %v", res.Delta[0].Mean())
	}
}

// TestCampaignMatchesManualReplay pins the campaign's exact semantics:
// with one worker it must be draw-for-draw identical to hand-rolling the
// public RecordedTrace machinery — factory once, reset per replication,
// every candidate replayed through a cursor in order.
func TestCampaignMatchesManualReplay(t *testing.T) {
	plans := campaignPlans()
	const runs = 800
	weib, err := failure.NewWeibull(0.7, 30)
	if err != nil {
		t.Fatal(err)
	}
	factory := SuperposedFactory(weib, 4, failure.RejuvenateFailedOnly)
	opts := Options{Downtime: 0.5, Workers: 1}

	// Manual replay, mirroring campaign's single-worker loop (including
	// the initial seed.Split the worker partition performs).
	var manual [2][]float64
	r := rng.New(21).Split()
	src := factory(r)
	trace := failure.NewRecordedTrace(src)
	cursor := trace.Cursor()
	for rep := 0; rep < runs; rep++ {
		if rep > 0 {
			trace.Reset()
		}
		for cand := range plans {
			cursor.Reset()
			rs, err := Run(plans[cand], cursor, opts)
			if err != nil {
				t.Fatal(err)
			}
			manual[cand] = append(manual[cand], rs.Makespan)
		}
	}

	res, err := CampaignPlans(plans, factory, opts, runs, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for cand := range plans {
		var want stats.Summary
		want.AddAll(manual[cand])
		if got := res.Results[cand].Makespan.Mean(); got != want.Mean() {
			t.Errorf("candidate %d: campaign mean %v, manual replay %v", cand, got, want.Mean())
		}
	}
}

// TestCampaignMarginalsMatchIndependentKS pins the statistical contract:
// each candidate's makespan marginal under CRN replay is the same
// distribution as under independent sampling — only the coupling between
// candidates changes. Verified with a two-sample KS test at α = 0.01 on
// both candidates.
func TestCampaignMarginalsMatchIndependentKS(t *testing.T) {
	plans := campaignPlans()
	const runs = 3000
	factory := ExponentialFactory(0.05)
	opts := Options{Downtime: 0.5, Workers: 1}

	// CRN marginals via the replay machinery (draw-identical to
	// CampaignPlans, per TestCampaignMatchesManualReplay).
	var crn [2][]float64
	r := rng.New(31).Split()
	src := factory(r)
	trace := failure.NewRecordedTrace(src)
	cursor := trace.Cursor()
	for rep := 0; rep < runs; rep++ {
		if rep > 0 {
			trace.Reset()
		}
		for cand := range plans {
			cursor.Reset()
			rs, err := Run(plans[cand], cursor, opts)
			if err != nil {
				t.Fatal(err)
			}
			crn[cand] = append(crn[cand], rs.Makespan)
		}
	}

	// Independent marginals: fresh environment per run per candidate.
	for cand := range plans {
		indep := make([]float64, 0, runs)
		ri := rng.New(uint64(100 + cand))
		proc := factory(ri)
		for rep := 0; rep < runs; rep++ {
			if rep > 0 {
				proc.(failure.Resettable).Reset()
			}
			rs, err := Run(plans[cand], proc, opts)
			if err != nil {
				t.Fatal(err)
			}
			indep = append(indep, rs.Makespan)
		}
		ok, d, err := stats.KSTwoSampleTest(crn[cand], indep, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("candidate %d: CRN marginal differs from independent sampling (KS D = %v)", cand, d)
		}
	}
}

// TestCampaignVarianceReduction pins the point of CRN: at equal run
// counts, the variance of the paired strategy delta is far below the
// variance of a difference of independent estimates.
func TestCampaignVarianceReduction(t *testing.T) {
	plans := campaignPlans()
	const runs = 4000
	factory := ExponentialFactory(0.05)
	opts := Options{Downtime: 0.5, Workers: 1}
	res, err := CampaignPlans(plans, factory, opts, runs, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	a, err := MonteCarlo(plans[0], factory, opts, runs, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(plans[1], factory, opts, runs, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	indepVar := a.Makespan.Variance() + b.Makespan.Variance()
	crnVar := res.Delta[1].Variance()
	if crnVar <= 0 {
		t.Fatalf("CRN delta variance %v must be positive for distinct plans", crnVar)
	}
	if crnVar > indepVar/2 {
		t.Errorf("CRN delta variance %v not meaningfully below independent %v", crnVar, indepVar)
	}
	// The paired mean must agree with the difference of independent means
	// within joint confidence intervals.
	wantDelta := b.Makespan.Mean() - a.Makespan.Mean()
	tol := res.Delta[1].CI(0.999) + a.Makespan.CI(0.999) + b.Makespan.CI(0.999)
	if math.Abs(res.Delta[1].Mean()-wantDelta) > tol {
		t.Errorf("paired delta %v vs independent %v (tol %v)", res.Delta[1].Mean(), wantDelta, tol)
	}
}

// TestCampaignHeapScanConsistent runs the same CRN campaign on the heap
// process and the scan reference: the two are sample-identical, so the
// campaign aggregates must agree to ulp accuracy (bit-exactly at p = 1).
func TestCampaignHeapScanConsistent(t *testing.T) {
	plans := campaignPlans()
	weib, err := failure.NewWeibull(0.7, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 16} {
		opts := Options{Downtime: 0.5, Workers: 2}
		heap, err := CampaignPlans(plans, SuperposedFactory(weib, procs, failure.RejuvenateFailedOnly), opts, 600, rng.New(51))
		if err != nil {
			t.Fatal(err)
		}
		scan, err := CampaignPlans(plans, ScanFactory(weib, procs, failure.RejuvenateFailedOnly), opts, 600, rng.New(51))
		if err != nil {
			t.Fatal(err)
		}
		for cand := range plans {
			hm, sm := heap.Results[cand].Makespan.Mean(), scan.Results[cand].Makespan.Mean()
			if procs == 1 {
				if hm != sm {
					t.Errorf("p=1 cand %d: heap %v != scan %v (must be bit-exact)", cand, hm, sm)
				}
			} else if math.Abs(hm-sm) > 1e-9*sm {
				t.Errorf("p=%d cand %d: heap %v vs scan %v", procs, cand, hm, sm)
			}
		}
	}
}

// nonResettable hides Reset from a process, forcing the fallback path.
type nonResettable struct{ p failure.Process }

func (n nonResettable) NextFailure() float64 { return n.p.NextFailure() }
func (n nonResettable) ObserveFailure()      { n.p.ObserveFailure() }
func (n nonResettable) Advance(dt float64)   { n.p.Advance(dt) }
func (n nonResettable) Rate() float64        { return n.p.Rate() }

// TestCampaignNonResettableFactory exercises the factory-per-replication
// fallback.
func TestCampaignNonResettableFactory(t *testing.T) {
	plans := campaignPlans()
	factory := func(r *rng.Stream) failure.Process {
		return nonResettable{failure.NewExponentialProcess(0.05, r)}
	}
	res, err := CampaignPlans(plans, factory, Options{Downtime: 0.5, Workers: 1}, 300, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 300 {
		t.Errorf("runs = %d", res.Runs)
	}
	if res.Delta[1].Variance() <= 0 {
		t.Errorf("delta variance %v; fallback replications look degenerate", res.Delta[1].Variance())
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := CampaignPlans(nil, ExponentialFactory(1), Options{}, 10, rng.New(1)); err == nil {
		t.Error("no candidates should fail")
	}
	if _, err := CampaignPlans(campaignPlans(), ExponentialFactory(1), Options{}, 0, rng.New(1)); err == nil {
		t.Error("zero runs should fail")
	}
}

// TestCampaignDeterministicSeed: same seed and Workers reproduce the
// campaign bit-for-bit.
func TestCampaignDeterministicSeed(t *testing.T) {
	plans := campaignPlans()
	run := func() CampaignResult {
		res, err := CampaignPlans(plans, ExponentialFactory(0.05), Options{Downtime: 0.5, Workers: 3}, 999, rng.New(81))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Results[0].Makespan.Mean() != b.Results[0].Makespan.Mean() ||
		a.Delta[1].Mean() != b.Delta[1].Mean() {
		t.Error("same seed gave different campaign results")
	}
}
