package exec

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/store"
)

// crashScenario names one (workload, source) pair for the harness.
type crashScenario struct {
	name string
	w    *Workload
	src  func() Source
}

// crashScenarios builds the acceptance matrix: a chain plan and a DAG
// plan under both cost models, each against a keyed exponential source.
func crashScenarios(t *testing.T) []crashScenario {
	t.Helper()
	g, plan := diamondDAG(t)
	var out []crashScenario
	out = append(out, crashScenario{
		name: "chain",
		w:    chainWorkload(t),
		src:  func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 101, 1) },
	})
	for _, cm := range []core.CostModel{core.LastTaskCosts{R0: 0.5}, core.LiveSetCosts{R0: 0.5}} {
		w, err := NewDAGWorkload(g, plan, cm)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, crashScenario{
			name: "dag/" + cm.Name(),
			w:    w,
			src:  func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 101, 2) },
		})
	}
	return out
}

// runToCompletion drives the executor through a sequence of injected
// kill points: each invocation crashes at its kill point (or dies on an
// exhausted-retries store error, which the harness treats the same
// way), and the next invocation resumes from whatever the store holds.
// After the kill list is exhausted, a final clean invocation completes
// the run. It returns the final result and the number of invocations
// that actually crashed.
func runToCompletion(t *testing.T, sc crashScenario, st store.Store, kills []int, retries int) (*Result, int) {
	t.Helper()
	crashes := 0
	for _, kill := range kills {
		_, err := Execute(sc.w, sc.src(), Options{
			RunID: "acceptance", Store: st, Downtime: 1,
			SaveRetries: retries, CrashAfterEvents: kill,
		})
		switch {
		case err == nil:
			// The kill point landed past the end of the run; nothing to
			// resume, later kill points would also miss.
			return nil, crashes
		case errors.Is(err, ErrCrashed) || errors.Is(err, store.ErrInjected):
			crashes++
		default:
			t.Fatalf("kill@%d: unexpected error: %v", kill, err)
		}
	}
	res, err := Execute(sc.w, sc.src(), Options{
		RunID: "acceptance", Store: st, Downtime: 1, SaveRetries: retries,
	})
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	return res, crashes
}

// TestCrashResumeBitIdenticalJournals is the acceptance property of the
// whole runtime: for chain and DAG plans under both cost models, an
// execution killed at several distinct injected points and resumed each
// time from the durable file store finishes with a journal
// byte-identical to the uninterrupted run's, and identical metrics.
func TestCrashResumeBitIdenticalJournals(t *testing.T) {
	for _, sc := range crashScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			ref, err := Execute(sc.w, sc.src(), Options{Downtime: 1})
			if err != nil {
				t.Fatal(err)
			}
			n := len(ref.Journal)
			if n < 10 {
				t.Fatalf("reference journal too short (%d events) to place 3 kill points", n)
			}
			// Three strictly increasing kill points inside the run, plus
			// one killing between the final checkpoint event and
			// completion.
			kills := []int{n / 5, 2 * n / 5, 7 * n / 10, n - 1}
			fs, err := store.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res, crashes := runToCompletion(t, sc, store.Checked(fs), kills, 0)
			if res == nil {
				t.Fatal("kill points missed the run entirely")
			}
			if crashes < 3 {
				t.Fatalf("only %d crashes injected, want ≥ 3", crashes)
			}
			if !res.Resumed {
				t.Fatal("final invocation did not resume from the store")
			}
			if !res.Journal.Equal(ref.Journal) {
				t.Fatalf("resumed journal differs from uninterrupted run:\nresumed %d events, reference %d",
					len(res.Journal), len(ref.Journal))
			}
			if res.Metrics != ref.Metrics {
				t.Fatalf("resumed metrics differ: %+v vs %+v", res.Metrics, ref.Metrics)
			}
		})
	}
}

// TestCrashResumeUnderFaultInjection repeats the acceptance property
// with a hostile store: injected clean write failures, torn writes
// (detected by the codec on resume), silent loss of old checkpoints and
// transient read failures. Retries absorb what they can; resume falls
// back past what they cannot; the final journal must still be
// byte-identical to the undisturbed reference.
func TestCrashResumeUnderFaultInjection(t *testing.T) {
	for _, sc := range crashScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			ref, err := Execute(sc.w, sc.src(), Options{Downtime: 1})
			if err != nil {
				t.Fatal(err)
			}
			n := len(ref.Journal)
			for _, plan := range []store.FaultPlan{
				{Seed: 1, WriteFail: 0.3},
				{Seed: 2, TornWrite: 0.4},
				{Seed: 3, LoseOld: 0.8},
				{Seed: 4, ReadFail: 0.3},
				{Seed: 5, WriteFail: 0.15, TornWrite: 0.15, LoseOld: 0.4, ReadFail: 0.15, MeanLatency: 2},
			} {
				fs, err := store.NewFileStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				faulty := store.NewFaultStore(fs, plan)
				kills := []int{n / 6, n / 3, n / 2, 4 * n / 5}
				res, crashes := runToCompletion(t, sc, store.Checked(faulty), kills, 4)
				if res == nil {
					t.Fatalf("plan %+v: kill points missed the run", plan)
				}
				if crashes < 3 {
					t.Fatalf("plan %+v: only %d crashes", plan, crashes)
				}
				if !res.Journal.Equal(ref.Journal) {
					t.Fatalf("plan %+v: resumed journal differs from reference", plan)
				}
				if res.Metrics != ref.Metrics {
					t.Fatalf("plan %+v: metrics differ: %+v vs %+v", plan, res.Metrics, ref.Metrics)
				}
			}
		})
	}
}

// adaptiveDrill is one degraded-store kill/resume scenario: a workload,
// a fault plan (logical keys — required so a fresh injector deals a
// resumed run the same outcomes the uninterrupted run saw), an optional
// quota and secondary, a retry policy and optionally a replanner.
type adaptiveDrill struct {
	name      string
	w         *Workload
	src       func() Source
	plan      store.FaultPlan
	quota     *store.Quota
	secondary bool
	retry     RetryPolicy
	replanner func() Replanner
}

// adaptiveStack is one scenario's persistent storage: the inner stores
// and quota ledger survive invocations, while the fault-injecting
// wrapper is rebuilt per invocation — process-restart semantics, which
// resets the injector's logical attempt counters exactly as the
// contract requires.
type adaptiveStack struct {
	d      adaptiveDrill
	mem    *store.MemStore
	sec    *store.MemStore
	ledger *store.QuotaLedger
}

func newAdaptiveStack(d adaptiveDrill) *adaptiveStack {
	a := &adaptiveStack{d: d, mem: store.NewMemStore()}
	if d.secondary {
		a.sec = store.NewMemStore()
	}
	if d.quota != nil {
		a.ledger = store.NewQuotaLedger(*d.quota, nil)
	}
	return a
}

func (a *adaptiveStack) options(crashEvents int) Options {
	prim := store.Store(store.Checked(store.NewFaultStore(a.mem, a.d.plan)))
	if a.ledger != nil {
		prim = store.NewQuotaStore(a.ledger, prim)
	}
	ad := &AdaptiveOptions{
		Retry:       a.d.retry,
		ReplanRatio: 1.4,
		DownAfter:   3,
	}
	if a.d.replanner != nil {
		ad.Replanner = a.d.replanner()
	}
	if a.sec != nil {
		ad.Secondary = store.Checked(a.sec)
	}
	return Options{
		RunID: "acceptance", Store: prim, Downtime: 1,
		CrashAfterEvents: crashEvents, Adaptive: ad,
	}
}

// adaptiveDrills builds the degraded-store scenario matrix: chain plans
// under drift+replan with exponential backoff and with fixed retries,
// a quota that runs out mid-run, an always-failing primary with
// failover, a no-retry ladder collapse, and a DAG live-set plan with
// the order replanner.
func adaptiveDrills(t *testing.T) []adaptiveDrill {
	t.Helper()
	cp, _ := chainProblem(t)
	chainSrc := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 101, 1) }
	chainRP := func() Replanner { return ChainReplanner{CP: cp} }
	g, plan := diamondDAG(t)
	cm := core.LiveSetCosts{R0: 0.5}
	dagW, err := NewDAGWorkload(g, plan, cm)
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []adaptiveDrill{
		{
			name: "chain/drift-exp-backoff", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 11, MeanLatency: 2.5, WriteFail: 0.2, ReadFail: 0.1, LogicalKeys: true},
			retry: ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 5}, replanner: chainRP,
		},
		{
			name: "chain/torn-fixed-retry", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 12, MeanLatency: 1.5, WriteFail: 0.3, TornWrite: 0.2, LogicalKeys: true},
			retry: FixedRetry{Attempts: 3}, replanner: chainRP,
		},
		{
			name: "chain/quota-down", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 13, MeanLatency: 1, LogicalKeys: true},
			quota: &store.Quota{MaxCheckpoints: 2},
			retry: ExpBackoff{Base: 0.5, MaxAttempts: 3}, replanner: chainRP,
		},
		{
			name: "chain/failover", w: chainWorkload(t), src: chainSrc,
			plan:      store.FaultPlan{Seed: 14, WriteFail: 1, LogicalKeys: true},
			secondary: true, retry: FixedRetry{Attempts: 1}, replanner: chainRP,
		},
		{
			name: "chain/no-retry", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 15, MeanLatency: 1, WriteFail: 0.25, LogicalKeys: true},
			retry: NoRetry{},
		},
		{
			name: "dag/live-set-drift", w: dagW,
			src:   func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 101, 2) },
			plan:  store.FaultPlan{Seed: 16, MeanLatency: 2, WriteFail: 0.2, LogicalKeys: true},
			retry: ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 4},
			replanner: func() Replanner {
				return OrderReplanner{G: g, Order: order, M: m, CM: cm}
			},
		},
	}
}

// TestAdaptiveCrashResumeEveryEventPoint is the resilience acceptance
// property (the resume-under-backoff matrix): for every degraded-store
// scenario, a run killed at EVERY possible journal length and resumed
// once finishes with a journal byte-identical to the uninterrupted
// run's — retries, backoff, replans, quota rejections, failover and
// persistence-off included. In adaptive mode store trouble degrades
// rather than errors out, so a single clean resume always completes.
func TestAdaptiveCrashResumeEveryEventPoint(t *testing.T) {
	for _, d := range adaptiveDrills(t) {
		t.Run(d.name, func(t *testing.T) {
			refStack := newAdaptiveStack(d)
			ref, err := Execute(d.w, d.src(), refStack.options(0))
			if err != nil {
				t.Fatal(err)
			}
			if ref.Journal.Count(EvComplete) != 1 {
				t.Fatal("reference run did not complete")
			}
			n := len(ref.Journal)
			for kill := 1; kill <= n; kill++ {
				stack := newAdaptiveStack(d)
				_, err := Execute(d.w, d.src(), stack.options(kill))
				if err == nil {
					t.Fatalf("kill@%d did not crash a %d-event run", kill, n)
				}
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("kill@%d: unexpected error: %v", kill, err)
				}
				res, err := Execute(d.w, d.src(), stack.options(0))
				if err != nil {
					t.Fatalf("kill@%d: resume: %v", kill, err)
				}
				if !res.Journal.Equal(ref.Journal) {
					t.Fatalf("kill@%d: resumed journal differs from reference (%d vs %d events)",
						kill, len(res.Journal), len(ref.Journal))
				}
				if res.Metrics != ref.Metrics {
					t.Fatalf("kill@%d: metrics differ: %+v vs %+v", kill, res.Metrics, ref.Metrics)
				}
			}
		})
	}
}

// TestCrashAfterSavesKillPoint covers the save-count kill point: the
// crash lands immediately after a successful save, the resume picks up
// exactly there.
func TestCrashAfterSavesKillPoint(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1) }
	ref, err := Execute(w, src(), Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := store.Checked(store.NewMemStore())
	// Crash after every single save: each invocation advances exactly one
	// segment past its resume point.
	for i := 0; i < w.Segments()-1; i++ {
		_, err := Execute(w, src(), Options{Store: st, Downtime: 1, CrashAfterSaves: 1})
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash %d: %v, want ErrCrashed", i, err)
		}
	}
	res, err := Execute(w, src(), Options{Store: st, Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.ResumeSeq != uint64(w.Segments()-1) {
		t.Fatalf("resumed=%v seq=%d, want resume from seq %d", res.Resumed, res.ResumeSeq, w.Segments()-1)
	}
	if !res.Journal.Equal(ref.Journal) {
		t.Fatal("journal differs after save-count crashes")
	}
	// The planned expectation is still what the realized run decomposes
	// against; a resumed run reports the same makespan as the reference.
	if res.Makespan != ref.Makespan {
		t.Fatalf("makespan %v != reference %v", res.Makespan, ref.Makespan)
	}
}

// loadCounter is a pass-through store that counts Load calls per
// sequence number.
type loadCounter struct {
	store.Store
	loads map[uint64]int
}

func (c *loadCounter) Load(run string, seq uint64) ([]byte, error) {
	c.loads[seq]++
	return c.Store.Load(run, seq)
}

// TestLegacyResumeLoadsTornCheckpointOnce pins the classified load
// loop: a torn frame decodes as ErrCorrupt, which no retry can fix, so
// a resume with SaveRetries > 0 reads the newest (torn) checkpoint
// exactly once before falling back to the one below it, and still
// finishes on the uninterrupted journal.
func TestLegacyResumeLoadsTornCheckpointOnce(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1) }
	ref, err := Execute(w, src(), Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemStore()
	counter := &loadCounter{Store: mem, loads: map[uint64]int{}}
	opts := Options{RunID: "torn", Store: store.Checked(counter), Downtime: 1, SaveRetries: 2, CrashAfterSaves: 3}
	if _, err := Execute(w, src(), opts); !errors.Is(err, ErrCrashed) {
		t.Fatalf("first invocation: %v, want ErrCrashed", err)
	}
	newest, ok, err := store.Latest(mem, "torn")
	if err != nil || !ok || newest != 3 {
		t.Fatalf("Latest = %d, %v, %v; want seq 3", newest, ok, err)
	}
	frame, err := mem.Load("torn", newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Save("torn", newest, frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	clear(counter.loads)
	opts.CrashAfterSaves = 0
	res, err := Execute(w, src(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.loads[newest]; got != 1 {
		t.Fatalf("torn checkpoint %d loaded %d times, want 1", newest, got)
	}
	if !res.Resumed || res.ResumeSeq != newest-1 {
		t.Fatalf("resumed=%v seq=%d, want fallback to seq %d", res.Resumed, res.ResumeSeq, newest-1)
	}
	if !res.Journal.Equal(ref.Journal) {
		t.Fatal("journal differs after resuming past a torn checkpoint")
	}
}
