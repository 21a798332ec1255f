package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/store"
)

// TestClassifyStoreError pins the error taxonomy the retry loops key
// off: transient faults retry, permanent faults degrade, fatal faults
// abort.
func TestClassifyStoreError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrorClass
	}{
		{"injected write", store.ErrInjectedWrite, ClassTransient},
		{"injected read", store.ErrInjectedRead, ClassTransient},
		{"wrapped injected", fmt.Errorf("save r/3: %w", store.ErrInjectedWrite), ClassTransient},
		{"unknown io error", errors.New("connection reset"), ClassTransient},
		{"quota", store.ErrQuota, ClassPermanent},
		{"wrapped quota", fmt.Errorf("save r/3: %w", store.ErrQuota), ClassPermanent},
		{"corrupt", store.ErrCorrupt, ClassPermanent},
		{"not found", store.ErrNotFound, ClassPermanent},
		{"fingerprint", fmt.Errorf("resume: %w", ErrFingerprint), ClassFatal},
		{"malformed state", fmt.Errorf("decode: %w", errState), ClassFatal},
		{"timeout", store.ErrTimeout, ClassTransient},
		{"wrapped timeout", fmt.Errorf("save r/3: %w", store.ErrTimeout), ClassTransient},
		{"quorum wrapping timeout", fmt.Errorf("save r/3: 1/2 replicas: %w: %w", store.ErrQuorum, store.ErrTimeout), ClassTransient},
		{"fenced", store.ErrFenced, ClassFatal},
		{"wrapped fenced", fmt.Errorf("save r/3: %w (epoch 2 supersedes 1)", store.ErrFenced), ClassFatal},
		{"lease expired", store.ErrLeaseExpired, ClassTransient},
		{"wrapped lease expired", fmt.Errorf("save r/3: %w: %w", store.ErrLeaseExpired, store.ErrTimeout), ClassTransient},
		{"lease held", store.ErrLeaseHeld, ClassTransient},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ClassifyStoreError(c.err); got != c.want {
				t.Fatalf("ClassifyStoreError(%v) = %v, want %v", c.err, got, c.want)
			}
		})
	}
}

// TestRetryPolicies pins each policy's full decision sequence.
func TestRetryPolicies(t *testing.T) {
	type step struct {
		attempt int
		delay   float64
		retry   bool
	}
	cases := []struct {
		name  string
		pol   RetryPolicy
		steps []step
	}{
		{"none", NoRetry{}, []step{{1, 0, false}}},
		{"fixed", FixedRetry{Attempts: 2}, []step{
			{1, 0, true}, {2, 0, true}, {3, 0, false},
		}},
		{"exp capped", ExpBackoff{Base: 1, Factor: 2, Cap: 5, MaxAttempts: 4}, []step{
			{1, 1, true}, {2, 2, true}, {3, 4, true}, {4, 5, true}, {5, 0, false},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.pol.Name() == "" {
				t.Fatal("empty policy name")
			}
			for _, s := range c.steps {
				delay, retry := c.pol.Backoff(s.attempt)
				if delay != s.delay || retry != s.retry {
					t.Fatalf("Backoff(%d) = (%v, %v), want (%v, %v)",
						s.attempt, delay, retry, s.delay, s.retry)
				}
			}
		})
	}
}

// TestStoreHealthObserver pins the EWMA seeding/update rule (weight
// 0.25).
func TestStoreHealthObserver(t *testing.T) {
	var h StoreHealth
	h.ObserveCommit(2, 1)
	if h.ewmaLat != 2 || h.ewmaOver != 1 || h.OverheadEstimate() != 3 {
		t.Fatalf("first commit did not seed: lat %v over %v", h.ewmaLat, h.ewmaOver)
	}
	h.ObserveCommit(4, 0)
	if h.ewmaLat != 2.5 || h.ewmaOver != 0.75 {
		t.Fatalf("alpha=0.25 update wrong: lat %v over %v", h.ewmaLat, h.ewmaOver)
	}
	if h.commits != 2 {
		t.Fatalf("commits = %d, want 2", h.commits)
	}
}

// TestChainReplannerSuffixes pins that a zero-overhead replan from the
// start reproduces the full DP solution exactly, and that inflated
// overhead never yields more checkpoints on this instance.
func TestChainReplannerSuffixes(t *testing.T) {
	cp, _ := chainProblem(t)
	full, err := core.SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cp.Segments(full.CheckpointAfter)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChainReplanner{CP: cp}.Replan(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("zero-overhead replan: %d segments, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("segment %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	inflated, err := ChainReplanner{CP: cp}.Replan(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(inflated) > len(want) {
		t.Fatalf("overhead 5 increased checkpoints: %d > %d", len(inflated), len(want))
	}
	// True costs, not inflated ones, must appear in the output segments.
	for _, sg := range inflated {
		if sg.Checkpoint != cp.Ckpt[sg.End] {
			t.Fatalf("segment [%d,%d] carries checkpoint %v, want true cost %v",
				sg.Start, sg.End, sg.Checkpoint, cp.Ckpt[sg.End])
		}
	}
	// A mid-chain suffix covers exactly [from, n−1] contiguously.
	segs, err := ChainReplanner{CP: cp}.Replan(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, segs, 4, cp.Len()-1)
}

// checkCover asserts segments cover [from, last] contiguously.
func checkCover(t *testing.T, segs []core.Segment, from, last int) {
	t.Helper()
	want := from
	for _, sg := range segs {
		if sg.Start != want {
			t.Fatalf("segment starts at %d, want %d", sg.Start, want)
		}
		want = sg.End + 1
	}
	if want != last+1 {
		t.Fatalf("segments end at %d, want %d", want-1, last)
	}
}

// TestOrderReplannerBothModels pins the DAG suffix replanner under the
// last-task model (the kernel arm) and the live-set model (incremental
// live sets over the full order): contiguous cover and the segment
// ledger's absolute-position costs.
func TestOrderReplannerBothModels(t *testing.T) {
	g, _ := diamondDAG(t)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range []core.CostModel{core.LastTaskCosts{R0: 0.5}, core.LiveSetCosts{R0: 0.5}} {
		t.Run(cm.Name(), func(t *testing.T) {
			r := OrderReplanner{G: g, Order: order, M: m, CM: cm}
			for _, from := range []int{0, 3, len(order) - 1} {
				segs, err := r.Replan(from, 1.5)
				if err != nil {
					t.Fatal(err)
				}
				checkCover(t, segs, from, len(order)-1)
				ckv := make([]bool, len(order))
				for _, sg := range segs {
					ckv[sg.End] = true
				}
				want, err := core.PlanSegments(g, order, ckv, cm, from)
				if err != nil {
					t.Fatal(err)
				}
				for i, sg := range segs {
					if sg != want[i] {
						t.Fatalf("segment %d is %+v, want %+v (absolute-position costs)", i, sg, want[i])
					}
				}
			}
		})
	}
}

// TestOrderReplannerAllocs guards the live-set suffix replan against a
// return to per-transition cost-model calls, which rebuild the order's
// positions and rescan the segment each time (tens of thousands of
// allocations at 400 tasks): a replan from the start allocates at most
// twice what SolveOrderDP does on the same order.
func TestOrderReplannerAllocs(t *testing.T) {
	g, err := dag.Layered(40, 10, 0.3, dag.DefaultWeights(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm := core.LiveSetCosts{R0: 0.5}
	r := OrderReplanner{G: g, Order: order, M: m, CM: cm}
	replan := testing.AllocsPerRun(5, func() {
		if _, err := r.Replan(0, 0.5); err != nil {
			t.Fatal(err)
		}
	})
	solve := testing.AllocsPerRun(5, func() {
		if _, err := core.SolveOrderDP(g, order, m, cm); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per call: replan %v, SolveOrderDP %v", replan, solve)
	if replan > 2*solve {
		t.Fatalf("live-set replan allocates %v per call, SolveOrderDP %v: want at most 2×", replan, solve)
	}
}

// TestAdaptiveCleanStoreMatchesLegacy pins that on a healthy store the
// tuned ladder is pure observation: a run with a retry policy, a
// replanner and a hysteresis band journals exactly what the
// default-options store run journals, and its compute events and
// metrics equal the store-less run's, with no overhead, no replans
// and no ladder moves.
func TestAdaptiveCleanStoreMatchesLegacy(t *testing.T) {
	cp, _ := chainProblem(t)
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1) }
	bare, err := Execute(w, src(), Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Execute(w, src(), Options{Downtime: 1, Store: store.Checked(store.NewMemStore())})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Execute(w, src(), Options{
		Downtime: 1, Store: store.Checked(store.NewMemStore()),
		Adaptive: &AdaptiveOptions{
			Retry:       ExpBackoff{Base: 0.5, Cap: 4},
			Replanner:   ChainReplanner{CP: cp},
			ReplanRatio: 1.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.Journal.Equal(plain.Journal) {
		t.Fatal("tuned run's journal differs from the default-options run's on a healthy store")
	}
	if !tuned.Journal.Compute().Equal(bare.Journal) {
		t.Fatal("tuned run's compute events differ from the store-less run's")
	}
	if tuned.Metrics != bare.Metrics {
		t.Fatalf("metrics drifted: %+v vs %+v", tuned.Metrics, bare.Metrics)
	}
	if tuned.StoreOverhead != 0 || tuned.Replans != 0 || tuned.GiveUps != 0 ||
		tuned.Level != LevelHealthy {
		t.Fatalf("healthy store perturbed adaptivity: %+v", *tuned)
	}
	if tuned.Journal.Count(EvHealth) != w.Segments() ||
		tuned.Journal.Count(EvSaveResult) != w.Segments() {
		t.Fatalf("expected one health + save-result event per commit: %d/%d",
			tuned.Journal.Count(EvHealth), tuned.Journal.Count(EvSaveResult))
	}
}

// TestAdaptiveReplanUnderDrift pins the tentpole behavior: a store
// whose injected latency dwarfs the planned checkpoint cost pushes
// C_eff out of the hysteresis band, the executor replans online, and
// the run finishes degraded with the overhead on the books.
func TestAdaptiveReplanUnderDrift(t *testing.T) {
	cp, _ := chainProblem(t)
	w := chainWorkload(t)
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1)
	st := store.Checked(store.NewFaultStore(store.NewMemStore(), store.FaultPlan{
		Seed: 9, MeanLatency: 3,
	}))
	res, err := Execute(w, src, Options{
		Downtime: 1, Store: st,
		Adaptive: &AdaptiveOptions{
			Retry:       ExpBackoff{Base: 0.5, Cap: 4},
			Replanner:   ChainReplanner{CP: cp},
			ReplanRatio: 1.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans == 0 {
		t.Fatal("3-unit latency against sub-unit checkpoint costs triggered no replan")
	}
	if res.Level != LevelDegraded {
		t.Fatalf("level = %v, want degraded", res.Level)
	}
	if res.StoreOverhead <= 0 {
		t.Fatal("no store overhead recorded")
	}
	if res.Journal.Count(EvReplan) != res.Replans {
		t.Fatalf("journal records %d replans, result says %d", res.Journal.Count(EvReplan), res.Replans)
	}
	if res.Journal.Count(EvComplete) != 1 {
		t.Fatal("run did not complete")
	}
}

// TestAdaptiveFailover pins the ladder's middle rung: a primary that
// rejects every write pushes the run to the secondary after the
// consecutive-give-up threshold, and the run completes with every
// checkpoint on the secondary.
func TestAdaptiveFailover(t *testing.T) {
	w := chainWorkload(t)
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1)
	primInner, secInner := store.NewMemStore(), store.NewMemStore()
	prim := store.Checked(store.NewFaultStore(primInner, store.FaultPlan{
		Seed: 14, WriteFail: 1,
	}))
	res, err := Execute(w, src, Options{
		Downtime: 1, Store: prim,
		Adaptive: &AdaptiveOptions{
			Retry:     FixedRetry{Attempts: 1},
			Secondary: store.Checked(secInner),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != LevelFailover {
		t.Fatalf("level = %v, want failover", res.Level)
	}
	if res.GiveUps != 2 {
		t.Fatalf("give-ups = %d, want exactly the failover threshold", res.GiveUps)
	}
	if got := res.Journal.Count(EvDegrade); got != 1 {
		t.Fatalf("%d degrade events, want 1", got)
	}
	if seqs, _ := primInner.List("run"); len(seqs) != 0 {
		t.Fatalf("primary holds %v despite WriteFail=1", seqs)
	}
	seqs, err := secInner.List("run")
	if err != nil || len(seqs) != w.Segments()-2 {
		t.Fatalf("secondary holds %v, want the %d post-failover checkpoints", seqs, w.Segments()-2)
	}
	// A fresh invocation resumes from the secondary and reproduces the
	// reference tail.
	again, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1), Options{
		Downtime: 1,
		Store: store.Checked(store.NewFaultStore(primInner, store.FaultPlan{
			Seed: 14, WriteFail: 1,
		})),
		Adaptive: &AdaptiveOptions{
			Retry:     FixedRetry{Attempts: 1},
			Secondary: store.Checked(secInner),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || !again.Journal.Equal(res.Journal) {
		t.Fatalf("resume from secondary diverged (resumed=%v)", again.Resumed)
	}
}

// TestAdaptiveDownAndRewind pins the ladder's last rung: with no
// secondary and a store that never accepts a write, the run switches
// persistence off after DownAfter give-ups, keeps executing
// (checkpoint costs still paid — the model is unchanged), skips the
// remaining saves, and reports the accumulated rewind exposure.
func TestAdaptiveDownAndRewind(t *testing.T) {
	w := chainWorkload(t)
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1)
	st := store.Checked(store.NewFaultStore(store.NewMemStore(), store.FaultPlan{
		Seed: 3, WriteFail: 1,
	}))
	res, err := Execute(w, src, Options{
		Downtime: 1, Store: st,
		Adaptive: &AdaptiveOptions{Retry: FixedRetry{Attempts: 1}, DownAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != LevelDown {
		t.Fatalf("level = %v, want down", res.Level)
	}
	if res.Saves != 0 {
		t.Fatalf("saves = %d on an always-failing store", res.Saves)
	}
	if res.GiveUps != 2 {
		t.Fatalf("give-ups = %d, want DownAfter=2", res.GiveUps)
	}
	skipped := 0
	for _, e := range res.Journal {
		if e.Kind == EvSaveResult && int(e.Arg)&7 == saveCodeSkipped {
			skipped++
		}
	}
	if want := w.Segments() - 2; skipped != want {
		t.Fatalf("%d skipped saves, want %d", skipped, want)
	}
	if res.MaxRewind != res.Makespan {
		t.Fatalf("rewind exposure %v, want full makespan %v (nothing ever persisted)",
			res.MaxRewind, res.Makespan)
	}
	if res.Journal.Count(EvComplete) != 1 {
		t.Fatal("run did not complete checkpoint-free")
	}
}

// TestAdaptiveQuotaPermanent pins that a quota rejection is treated as
// permanent: no retries are burned, and the ladder reacts immediately.
func TestAdaptiveQuotaPermanent(t *testing.T) {
	w := chainWorkload(t)
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1)
	ledger := store.NewQuotaLedger(store.Quota{MaxBytes: 16}, nil)
	st := store.NewQuotaStore(ledger, store.Checked(store.NewMemStore()))
	res, err := Execute(w, src, Options{
		Downtime: 1, Store: st,
		Adaptive: &AdaptiveOptions{Retry: FixedRetry{Attempts: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != LevelDown {
		t.Fatalf("level = %v, want down (permanent error, no secondary)", res.Level)
	}
	if res.GiveUps != 1 {
		t.Fatalf("give-ups = %d, want 1 (immediate)", res.GiveUps)
	}
	for _, e := range res.Journal {
		if e.Kind == EvSaveResult && int(e.Arg)&7 == saveCodePermanent {
			if attempts := int(e.Arg) >> 3; attempts != 1 {
				t.Fatalf("permanent error burned %d attempts, want 1", attempts)
			}
			return
		}
	}
	t.Fatal("no permanent save-result event in journal")
}

// TestDAGWorkloadAllocs guards NewDAGWorkload against a return to
// per-segment cost calls: compiling a 10,000-task live-set plan costs a
// bounded number of allocations, not a few per segment.
func TestDAGWorkloadAllocs(t *testing.T) {
	g, err := dag.Layered(1000, 10, 0.3, dag.DefaultWeights(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(1e-3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cm := core.LiveSetCosts{R0: 0.5}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveOrderDP(g, order, m, cm)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewDAGWorkload(g, plan, cm); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewDAGWorkload: %v allocations for %d segments", allocs, plan.NumCheckpoints())
	if allocs > 64 {
		t.Fatalf("NewDAGWorkload makes %v allocations, want ≤ 64", allocs)
	}
}
