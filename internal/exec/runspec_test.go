package exec

import (
	"errors"
	"testing"

	"repro/internal/netsim"
	"repro/internal/store"
)

// TestRunSpecValidate pins every rejection a run spec can meet as a
// typed *SpecError naming the field, from Validate, Open and Run alike,
// and never a panic.
func TestRunSpecValidate(t *testing.T) {
	cp, ck := chainProblem(t)
	w, err := NewChainWorkload(cp, ck)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Workload: w, Model: cp.Model}
	for name, tc := range map[string]struct {
		spec  RunSpec
		field string
	}{
		"inverted partition window": {RunSpec{Store: &StoreLayout{Net: &netsim.Config{
			Partitions: []netsim.Window{{Start: 5, End: 1, Isolated: []string{"s0"}}},
		}}}, "Store"},
		"negative partition start": {RunSpec{Store: &StoreLayout{Net: &netsim.Config{
			Partitions: []netsim.Window{{Start: -1, End: 1}},
		}}}, "Store"},
		"W over one replica": {RunSpec{Store: &StoreLayout{W: 2}}, "Store"},
		"quota with LoseOld": {RunSpec{Store: &StoreLayout{
			Quota: &store.Quota{MaxCheckpoints: 2}, Faults: &store.FaultPlan{LoseOld: 0.2},
		}}, "Store"},
		"negative latency":          {RunSpec{Store: &StoreLayout{Net: &netsim.Config{Latency: -1}}}, "Store"},
		"negative replicas":         {RunSpec{Store: &StoreLayout{Replicas: -2}}, "Store.Replicas"},
		"retry policy, no store":    {RunSpec{RetryPolicy: ExpBackoff{Base: 0.5}}, "RetryPolicy"},
		"no-retry policy, no store": {RunSpec{RetryPolicy: NoRetry{}}, "RetryPolicy"},
		"replan ratio, no store":    {RunSpec{ReplanRatio: 1.5}, "ReplanRatio"},
		"cooldown, no store":        {RunSpec{Cooldown: 2}, "Cooldown"},
		"down after, no store":      {RunSpec{DownAfter: 3}, "DownAfter"},
		"probe every, no store":     {RunSpec{ProbeEvery: 2}, "ProbeEvery"},
		"sync every, no store":      {RunSpec{SyncEvery: 2}, "SyncEvery"},
	} {
		var se *SpecError
		if err := tc.spec.Validate(); !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("%s: Validate = %v, want a *SpecError on %s", name, err, tc.field)
		}
		if _, err := tc.spec.Open(); !errors.As(err, &se) {
			t.Errorf("%s: Open = %v, want a *SpecError", name, err)
		}
		if _, err := tc.spec.Run(plan); !errors.As(err, &se) {
			t.Errorf("%s: Run = %v, want a *SpecError", name, err)
		}
	}
	for name, spec := range map[string]RunSpec{
		"store-less":         {},
		"quota without loss": {Store: &StoreLayout{Quota: &store.Quota{MaxCheckpoints: 2}, Faults: &store.FaultPlan{WriteFail: 0.1}}},
		"replicated quorum":  {Store: &StoreLayout{Replicas: 3, W: 3, Net: &netsim.Config{Latency: 0.1}}, RetryPolicy: ExpBackoff{Base: 0.5, Factor: 2, Cap: 4, MaxAttempts: 3}},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: Validate = %v, want nil", name, err)
		}
	}
}

// TestRunSpecRestart pins the restart semantics RunSpec declares: two
// process starts over one in-memory run (killed, then resumed) give
// the uninterrupted run's journal, and a stack kept across another
// process's takeover is fenced on its next write.
func TestRunSpecRestart(t *testing.T) {
	cp, ck := chainProblem(t)
	w, err := NewChainWorkload(cp, ck)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Workload: w, Model: cp.Model, Replanner: ChainReplanner{CP: cp}}
	spec := RunSpec{
		RunID: "restart", Seed: 77, Salt: 1,
		Store: &StoreLayout{
			Replicas: 3, Net: &netsim.Config{Seed: 5, Latency: 0.1, Jitter: 0.2, Loss: 0.05},
			Faults: &store.FaultPlan{Seed: 9, WriteFail: 0.2, MeanLatency: 0.5},
		},
		RetryPolicy: ExpBackoff{Base: 0.25, Factor: 2, Cap: 1, MaxAttempts: 4}, ReplanRatio: 1.3,
	}
	ref, err := spec.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for kill := 1; kill < len(ref.Journal); kill += 3 {
		b, err := spec.Open()
		if err != nil {
			t.Fatal(err)
		}
		killed := spec
		killed.CrashAfterEvents = kill
		if _, err := killed.RunOn(plan, b); !errors.Is(err, ErrCrashed) {
			t.Fatalf("kill@%d: %v, want ErrCrashed", kill, err)
		}
		res, err := spec.RunOn(plan, b)
		if err != nil {
			t.Fatalf("resume after kill@%d: %v", kill, err)
		}
		if !res.Journal.Equal(ref.Journal) || res.Metrics != ref.Metrics {
			t.Fatalf("resume after kill@%d: journal %016x, want %016x", kill, res.Journal.Hash(), ref.Journal.Hash())
		}
	}

	// A zombie keeps its stack across a takeover and is fenced.
	leased := func(holder string, takeover bool) RunSpec {
		s := spec
		layout := *spec.Store
		layout.Lease = &store.LeaseConfig{Holder: holder, TTL: 1e9, Takeover: takeover}
		s.Store = &layout
		return s
	}
	a := leased("a", false)
	b, err := a.Open()
	if err != nil {
		t.Fatal(err)
	}
	aStack, err := a.Start(b)
	if err != nil {
		t.Fatal(err)
	}
	killed := a
	killed.CrashAfterSaves = 2
	if _, err := killed.Execute(plan, aStack); !errors.Is(err, ErrCrashed) {
		t.Fatalf("a: %v, want ErrCrashed", err)
	}
	takeover := leased("b", true)
	takeover.CrashAfterSaves = 1
	if _, err := takeover.RunOn(plan, b); !errors.Is(err, ErrCrashed) {
		t.Fatalf("b: %v, want ErrCrashed", err)
	}
	if _, err := a.Execute(plan, aStack); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("zombie a on its stale stack: %v, want store.ErrFenced", err)
	}
}

// TestRetryPolicyAloneIsHonoured pins that a spec's RetryPolicy governs
// its saves with no other resilience field set: a 3-replica store with
// write faults on every replica under ExpBackoff{MaxAttempts: 12}
// completes, and its journal records saves that needed retries.
func TestRetryPolicyAloneIsHonoured(t *testing.T) {
	cp, w := segmentProblem(t, 64), segmentChain(t, 64)
	spec := RunSpec{
		RunID: "retried", Seed: 3, Salt: 1,
		Store:       &StoreLayout{Replicas: 3, Faults: &store.FaultPlan{Seed: 5, WriteFail: 0.2}},
		RetryPolicy: ExpBackoff{MaxAttempts: 12},
	}
	res, err := spec.Run(Plan{Workload: w, Model: cp.Model})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Journal.Count(EvComplete) != 1 {
		t.Fatal("run did not complete")
	}
	retried := 0
	for _, e := range res.Journal {
		if e.Kind == EvSaveResult && e.Arg>>3 > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatalf("no save needed a retry in %d save results", res.Journal.Count(EvSaveResult))
	}
	if res.GiveUps != 0 || res.Saves != w.Segments() {
		t.Fatalf("%d give-ups, %d saves: want every one of %d commits saved", res.GiveUps, res.Saves, w.Segments())
	}
}
