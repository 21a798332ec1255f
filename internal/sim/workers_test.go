package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// TestNoWorkerCountInResults pins the host clause of the determinism
// contract: MonteCarlo, MonteCarloPlan, CampaignPlans and
// EstimateExpectedTime return bit-identical results for every
// Options.Workers value under every GOMAXPROCS, so neither the caller's
// worker count nor the host's core count chooses the samples drawn.
func TestNoWorkerCountInResults(t *testing.T) {
	plans := campaignPlans()
	cp := testChain(t, 6, 0.1, 0.5)
	ck := make([]bool, 6)
	ck[2], ck[5] = true, true
	type outcome struct {
		mc, plan MCResult
		camp     CampaignResult
		est      stats.Summary
	}
	run := func(workers int) (o outcome) {
		opts := Options{Downtime: 0.5, Workers: workers}
		var err error
		if o.mc, err = MonteCarlo(plans[0], ExponentialFactory(0.05), opts, 999, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		if o.plan, err = MonteCarloPlan(cp, ck, ExponentialFactory(cp.Model.Lambda), opts, 999, rng.New(4)); err != nil {
			t.Fatal(err)
		}
		if o.camp, err = CampaignPlans(plans, ExponentialFactory(0.05), opts, 999, rng.New(5)); err != nil {
			t.Fatal(err)
		}
		if o.est, err = EstimateExpectedTime(5, 1, 0.5, 1, 0.1, 999, rng.New(6)); err != nil {
			t.Fatal(err)
		}
		return o
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	ref := run(1)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 4} {
			if got := run(workers); !reflect.DeepEqual(got, ref) {
				t.Errorf("GOMAXPROCS=%d Workers=%d: results differ from the serial run", procs, workers)
			}
		}
	}
}
