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
// kill points: each invocation is a new process on a fresh stack from
// open over the same backends, crashes at its kill point, and the next
// resumes from whatever the store holds. After the kill list is
// exhausted, a final clean invocation completes the run. It returns the
// final result and the number of invocations that actually crashed.
func runToCompletion(t *testing.T, sc crashScenario, open func() store.Store, retry RetryPolicy, kills []int) (*Result, int) {
	t.Helper()
	crashes := 0
	for _, kill := range kills {
		_, err := runOnce(sc, open(), retry, kill)
		switch {
		case err == nil:
			// The kill point landed past the end of the run; nothing to
			// resume, later kill points would also miss.
			return nil, crashes
		case errors.Is(err, ErrCrashed):
			crashes++
		default:
			t.Fatalf("kill@%d: unexpected error: %v", kill, err)
		}
	}
	res, err := runOnce(sc, open(), retry, 0)
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	return res, crashes
}

// runOnce is one invocation of sc on st under retry, killed after kill
// journal events when positive.
func runOnce(sc crashScenario, st store.Store, retry RetryPolicy, kill int) (*Result, error) {
	return Execute(sc.w, sc.src(), Options{
		RunID: "acceptance", Store: st, Downtime: 1, CrashAfterEvents: kill,
		Adaptive: &AdaptiveOptions{Retry: retry},
	})
}

// newFileStore is a file store in a fresh test directory.
func newFileStore(t *testing.T) *store.FileStore {
	t.Helper()
	fs, err := store.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestCrashResumeBitIdenticalJournals is the acceptance property of the
// whole runtime: for chain and DAG plans under both cost models, an
// execution killed at several distinct injected points and resumed each
// time from the durable file store finishes with a journal
// byte-identical to the uninterrupted stored run's, and identical
// metrics. The store charges nothing, so the compute events and metrics
// also equal the store-less run's.
func TestCrashResumeBitIdenticalJournals(t *testing.T) {
	for _, sc := range crashScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			bare, err := Execute(sc.w, sc.src(), Options{Downtime: 1})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runOnce(sc, store.Checked(newFileStore(t)), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Journal.Compute().Equal(bare.Journal) || ref.Metrics != bare.Metrics {
				t.Fatal("stored run's compute events or metrics differ from the store-less run's")
			}
			n := len(ref.Journal)
			if n < 10 {
				t.Fatalf("reference journal too short (%d events) to place 3 kill points", n)
			}
			// Three strictly increasing kill points inside the run, plus
			// one killing between the final checkpoint's save and
			// completion.
			kills := []int{n / 5, 2 * n / 5, 7 * n / 10, n - 1}
			fs := newFileStore(t)
			res, crashes := runToCompletion(t, sc, func() store.Store { return store.Checked(fs) }, nil, kills)
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
// transient read failures. Retries absorb what they can, the ladder
// degrades past what they cannot, and resume falls back past lost or
// torn checkpoints; the final journal must still be byte-identical to
// the uninterrupted run's on a fresh store of the same layout.
func TestCrashResumeUnderFaultInjection(t *testing.T) {
	retry := FixedRetry{Attempts: 4}
	for _, sc := range crashScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			for _, plan := range []store.FaultPlan{
				{Seed: 1, WriteFail: 0.3},
				{Seed: 2, TornWrite: 0.4},
				{Seed: 3, LoseOld: 0.8},
				{Seed: 4, ReadFail: 0.3},
				{Seed: 5, WriteFail: 0.15, TornWrite: 0.15, LoseOld: 0.4, ReadFail: 0.15, MeanLatency: 2},
			} {
				// open is a new process's stack over fs.
				open := func(fs *store.FileStore) func() store.Store {
					return func() store.Store { return store.Checked(store.NewFaultStore(fs, plan)) }
				}
				ref, err := runOnce(sc, open(newFileStore(t))(), retry, 0)
				if err != nil {
					t.Fatal(err)
				}
				n := len(ref.Journal)
				kills := []int{n / 6, n / 3, n / 2, 4 * n / 5}
				res, crashes := runToCompletion(t, sc, open(newFileStore(t)), retry, kills)
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
			plan:  store.FaultPlan{Seed: 11, MeanLatency: 2.5, WriteFail: 0.2, ReadFail: 0.1},
			retry: ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 5}, replanner: chainRP,
		},
		{
			name: "chain/torn-fixed-retry", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 12, MeanLatency: 1.5, WriteFail: 0.3, TornWrite: 0.2},
			retry: FixedRetry{Attempts: 3}, replanner: chainRP,
		},
		{
			name: "chain/quota-down", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 13, MeanLatency: 1},
			quota: &store.Quota{MaxCheckpoints: 2},
			retry: ExpBackoff{Base: 0.5, MaxAttempts: 3}, replanner: chainRP,
		},
		{
			name: "chain/failover", w: chainWorkload(t), src: chainSrc,
			plan:      store.FaultPlan{Seed: 14, WriteFail: 1},
			secondary: true, retry: FixedRetry{Attempts: 1}, replanner: chainRP,
		},
		{
			name: "chain/no-retry", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 15, MeanLatency: 1, WriteFail: 0.25},
			retry: NoRetry{},
		},
		{
			name: "dag/live-set-drift", w: dagW,
			src:   func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 101, 2) },
			plan:  store.FaultPlan{Seed: 16, MeanLatency: 2, WriteFail: 0.2},
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
// persistence-off included. Store trouble degrades rather than errors
// out, so a single clean resume always completes.
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
// crash lands immediately after a successful save, and the resume picks
// up exactly there. A resume's re-save of the restored payload counts
// as a save, so a resumed invocation crashes after two: the re-save and
// the next segment's.
func TestCrashAfterSavesKillPoint(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1) }
	ref, err := Execute(w, src(), Options{Store: store.Checked(store.NewMemStore()), Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemStore()
	// Each invocation advances exactly one segment past its resume point.
	for i := 0; i < w.Segments()-1; i++ {
		saves := 2
		if i == 0 {
			saves = 1
		}
		res, err := Execute(w, src(), Options{Store: store.Checked(mem), Downtime: 1, CrashAfterSaves: saves})
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash %d: %v, want ErrCrashed", i, err)
		}
		if res.Saves != saves {
			t.Fatalf("crash %d: %d saves, want %d", i, res.Saves, saves)
		}
	}
	res, err := Execute(w, src(), Options{Store: store.Checked(mem), Downtime: 1})
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
// a resume under a retry policy reads the newest (torn) checkpoint
// exactly once before falling back to the one below it, and still
// finishes on the uninterrupted journal of a fresh store.
func TestLegacyResumeLoadsTornCheckpointOnce(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1) }
	opts := func(st store.Store, saves int) Options {
		return Options{
			RunID: "torn", Store: store.Checked(st), Downtime: 1, CrashAfterSaves: saves,
			Adaptive: &AdaptiveOptions{Retry: FixedRetry{Attempts: 2}},
		}
	}
	ref, err := Execute(w, src(), opts(store.NewMemStore(), 0))
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemStore()
	counter := &loadCounter{Store: mem, loads: map[uint64]int{}}
	if _, err := Execute(w, src(), opts(counter, 3)); !errors.Is(err, ErrCrashed) {
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
	res, err := Execute(w, src(), opts(counter, 0))
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

// segmentProblem is an n-task chain with uniform checkpoint and
// recovery costs.
func segmentProblem(t testing.TB, n int) *core.ChainProblem {
	t.Helper()
	m, err := expectation.NewModel(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.ChainProblem{
		Weights:         make([]float64, n),
		Ckpt:            make([]float64, n),
		Rec:             make([]float64, n),
		InitialRecovery: 0.3,
		Model:           m,
	}
	for i := range n {
		cp.Weights[i] = 1 + float64(i%7)/2
		cp.Ckpt[i] = 0.25
		cp.Rec[i] = 0.2
	}
	return cp
}

// segmentChain is segmentProblem checkpointed after every task: its
// workload has n segments, so a run persists n chained checkpoints.
func segmentChain(t testing.TB, n int) *Workload {
	t.Helper()
	cp := segmentProblem(t, n)
	ck := make([]bool, n)
	for i := range ck {
		ck[i] = true
	}
	w, err := NewChainWorkload(cp, ck)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// rewrite replaces checkpoint seq's payload in mem with edit's result.
func rewrite(t *testing.T, mem *store.MemStore, run string, seq uint64, edit func(st *execState)) {
	t.Helper()
	data, err := store.Checked(mem).Load(run, seq)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	if err := store.Checked(mem).Save(run, seq, encodeState(st)); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFallsBackPastBrokenChain damages one link of a persisted
// checkpoint chain. Every checkpoint chained through the link is then
// unresumable, so the resume must fall back to the newest checkpoint
// below it (or start fresh when the root is gone) and still finish on
// the journal and metrics of the uninterrupted run on a fresh store.
func TestResumeFallsBackPastBrokenChain(t *testing.T) {
	const run, persisted, link = "chain", 8, 4
	w := segmentChain(t, 12)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 9, 1) }
	ref, err := Execute(w, src(), Options{RunID: run, Store: store.Checked(store.NewMemStore()), Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, mem *store.MemStore)
		want   uint64 // resume seq; 0 = fresh start
	}{
		{"missing link", func(t *testing.T, mem *store.MemStore) {
			if err := mem.Delete(run, link); err != nil {
				t.Fatal(err)
			}
		}, link - 1},
		{"missing root", func(t *testing.T, mem *store.MemStore) {
			if err := mem.Delete(run, 1); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"another seq's payload", func(t *testing.T, mem *store.MemStore) {
			// An intact chain of its own: only the key check rejects it.
			frame, err := mem.Load(run, link-2)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Save(run, link, frame); err != nil {
				t.Fatal(err)
			}
		}, link - 1},
		{"length mismatch", func(t *testing.T, mem *store.MemStore) {
			// The successor claims one more event of history than the
			// link encodes; every hash still matches.
			rewrite(t, mem, run, link+1, func(st *execState) { st.baseLen++ })
		}, link},
		{"hash mismatch", func(t *testing.T, mem *store.MemStore) {
			rewrite(t, mem, run, link, func(st *execState) {
				st.delta[0].Time += 0.5
			})
		}, link - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMemStore()
			opts := Options{RunID: run, Store: store.Checked(mem), Downtime: 1, CrashAfterSaves: persisted}
			if _, err := Execute(w, src(), opts); !errors.Is(err, ErrCrashed) {
				t.Fatalf("first invocation: %v, want ErrCrashed", err)
			}
			tc.damage(t, mem)
			opts.Store, opts.CrashAfterSaves = store.Checked(mem), 0
			res, err := Execute(w, src(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resumed != (tc.want > 0) || res.ResumeSeq != tc.want {
				t.Fatalf("resumed=%v seq=%d, want seq %d (0 = fresh start)", res.Resumed, res.ResumeSeq, tc.want)
			}
			if !res.Journal.Equal(ref.Journal) {
				t.Fatal("journal differs after falling back past a broken chain")
			}
			if res.Metrics != ref.Metrics {
				t.Fatalf("metrics differ: %+v vs %+v", res.Metrics, ref.Metrics)
			}
		})
	}
}

// TestFailoverResumeReadsChainFromSecondary kills an adaptive run after
// it failed over and has persisted a few checkpoints on the secondary.
// A failover restarts the chain, so the resume must resolve the newest
// secondary checkpoint from the secondary alone, loading each of its
// links exactly once and never touching the primary.
func TestFailoverResumeReadsChainFromSecondary(t *testing.T) {
	const run = "failover"
	w := segmentChain(t, 12)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 9, 1) }
	type stack struct {
		prim, sec *loadCounter
		opts      func(kill int) Options
	}
	newStack := func() *stack {
		s := &stack{
			prim: &loadCounter{Store: store.NewMemStore(), loads: map[uint64]int{}},
			sec:  &loadCounter{Store: store.NewMemStore(), loads: map[uint64]int{}},
		}
		// The quota admits three checkpoints; the fourth save is a
		// permanent error, which fails over at once.
		ledger := store.NewQuotaLedger(store.Quota{MaxCheckpoints: 3}, nil)
		s.opts = func(kill int) Options {
			return Options{
				RunID: run, Store: store.NewQuotaStore(ledger, store.Checked(s.prim)), Downtime: 1,
				CrashAfterEvents: kill,
				Adaptive:         &AdaptiveOptions{Retry: NoRetry{}, Secondary: store.Checked(s.sec)},
			}
		}
		return s
	}
	ref, err := Execute(w, src(), newStack().opts(0))
	if err != nil {
		t.Fatal(err)
	}
	// Kill right after the third save on the secondary.
	kill, secSaves := 0, -1
	for i, e := range ref.Journal {
		switch {
		case e.Kind == EvDegrade && DegradeLevel(e.Arg) == LevelFailover:
			secSaves = 0
		case e.Kind == EvSaveResult && secSaves >= 0:
			if secSaves++; secSaves == 3 {
				kill = i + 1
			}
		}
		if kill > 0 {
			break
		}
	}
	if kill == 0 {
		t.Fatal("reference run never saved three checkpoints after failing over")
	}
	s := newStack()
	killed, err := Execute(w, src(), s.opts(kill))
	if !errors.Is(err, ErrCrashed) || killed.Level != LevelFailover {
		t.Fatalf("killed invocation: level %v, err %v; want LevelFailover, ErrCrashed", killed.Level, err)
	}
	onSec, err := s.sec.List(run)
	if err != nil || len(onSec) != 3 {
		t.Fatalf("secondary holds %v (err %v), want 3 checkpoints", onSec, err)
	}
	clear(s.prim.loads)
	res, err := Execute(w, src(), s.opts(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.prim.loads) != 0 {
		t.Fatalf("resume loaded %v from the primary, want nothing", s.prim.loads)
	}
	for _, seq := range onSec {
		if s.sec.loads[seq] != 1 {
			t.Fatalf("secondary loads %v, want each of %v once", s.sec.loads, onSec)
		}
	}
	if !res.Resumed || res.ResumeSeq != onSec[len(onSec)-1] {
		t.Fatalf("resumed=%v seq=%d, want seq %d", res.Resumed, res.ResumeSeq, onSec[len(onSec)-1])
	}
	if !res.Journal.Equal(ref.Journal) {
		t.Fatal("journal differs after resuming a failed-over run")
	}
	if res.Metrics != ref.Metrics {
		t.Fatalf("metrics differ: %+v vs %+v", res.Metrics, ref.Metrics)
	}
}

// TestReadmitAfterFailoverResume kills a run at every event point of
// a ladder that fails over, goes down on the secondary too, and is
// re-admitted by a ride-out probe — more than once. A re-admitted run
// keeps saving to the secondary, so a resume from a payload persisted
// at LevelDegraded after a failover must select the secondary too, and
// every resume ends on the uninterrupted journal.
func TestReadmitAfterFailoverResume(t *testing.T) {
	w := segmentChain(t, 40)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 7, 1) }
	opts := func(prim, sec *store.MemStore, kill int) Options {
		return Options{
			RunID: "readmit", Downtime: 1, CrashAfterEvents: kill,
			Store: store.Checked(store.NewFaultStore(prim, store.FaultPlan{Seed: 1, WriteFail: 1})),
			Adaptive: &AdaptiveOptions{
				Retry: NoRetry{}, DownAfter: 2, ProbeEvery: 2,
				Secondary: store.Checked(store.NewFaultStore(sec, store.FaultPlan{Seed: 4, WriteFail: 0.5})),
			},
		}
	}
	ref, err := Execute(w, src(), opts(store.NewMemStore(), store.NewMemStore(), 0))
	if err != nil {
		t.Fatal(err)
	}
	var moves []DegradeLevel
	for _, e := range ref.Journal {
		if e.Kind == EvDegrade {
			moves = append(moves, DegradeLevel(e.Arg))
		}
	}
	if len(moves) < 4 || moves[0] != LevelFailover || moves[1] != LevelDown || moves[2] != LevelDegraded {
		t.Fatalf("ladder moves %v, want failover, down, re-admission and more", moves)
	}
	for kill := 1; kill < len(ref.Journal); kill++ {
		prim, sec := store.NewMemStore(), store.NewMemStore()
		if _, err := Execute(w, src(), opts(prim, sec, kill)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("kill@%d: %v, want ErrCrashed", kill, err)
		}
		res, err := Execute(w, src(), opts(prim, sec, 0))
		if err != nil {
			t.Fatalf("resume after kill@%d: %v", kill, err)
		}
		if !res.Journal.Equal(ref.Journal) || res.Metrics != ref.Metrics {
			t.Fatalf("resume after kill@%d (from seq %d) differs from the uninterrupted run", kill, res.ResumeSeq)
		}
	}
}

// TestLongRunKillResumeLinearStorage is kill/resume identity at
// production length: a 10k-segment chain, killed at eight event points
// spread over the run and resumed after each, ends on the uninterrupted
// journal and metrics, under write faults, injected latency, replans, a
// ladder that goes down and ride-out probes, so that every durable
// field is non-zero in some payload. It also asserts the storage bound:
// every retained payload is a fixed header plus the journal delta since
// its base, so what the run leaves in the store is linear in its
// journal, not quadratic.
func TestLongRunKillResumeLinearStorage(t *testing.T) {
	const run, n = "long", 10_000
	cp, w := segmentProblem(t, n), segmentChain(t, n)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.02}, 31, 1) }
	t.Run("adaptive", func(t *testing.T) {
		invoke := func(mem *store.MemStore, kill int) (*Result, error) {
			return Execute(w, src(), Options{
				RunID: run, Downtime: 1, CrashAfterEvents: kill,
				Store: store.Checked(store.NewFaultStore(mem, store.FaultPlan{Seed: 8, WriteFail: 0.3, MeanLatency: 0.05})),
				Adaptive: &AdaptiveOptions{
					Retry:       ExpBackoff{Base: 0.5, MaxAttempts: 2},
					Replanner:   ChainReplanner{CP: cp},
					ReplanRatio: 1.25,
					Cooldown:    400,
					DownAfter:   2,
					ProbeEvery:  3,
				},
			})
		}
		ref, err := invoke(store.NewMemStore(), 0)
		if err != nil {
			t.Fatal(err)
		}
		mem := store.NewMemStore()
		for i := 1; i <= 8; i++ {
			kill := len(ref.Journal) * i / 9
			if _, err := invoke(mem, kill); !errors.Is(err, ErrCrashed) {
				t.Fatalf("kill %d@%d: %v, want ErrCrashed", i, kill, err)
			}
		}
		res, err := invoke(mem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Resumed {
			t.Fatal("final invocation did not resume")
		}
		if !res.Journal.Equal(ref.Journal) {
			t.Fatalf("resumed journal differs from reference (%d vs %d events)", len(res.Journal), len(ref.Journal))
		}
		if res.Metrics != ref.Metrics {
			t.Fatalf("metrics differ: %+v vs %+v", res.Metrics, ref.Metrics)
		}
		if res.Replans != ref.Replans || res.GiveUps != ref.GiveUps || res.Level != ref.Level ||
			res.MaxRewind != ref.MaxRewind || res.OverheadEstimate != ref.OverheadEstimate {
			t.Fatalf("adaptive results differ: replans %d/%d, give-ups %d/%d, level %v/%v, max rewind %v/%v, overhead %v/%v",
				res.Replans, ref.Replans, res.GiveUps, ref.GiveUps, res.Level, ref.Level,
				res.MaxRewind, ref.MaxRewind, res.OverheadEstimate, ref.OverheadEstimate)
		}

		probe := store.NewMemStore()
		if err := store.Checked(probe).Save(run, 1, nil); err != nil {
			t.Fatal(err)
		}
		empty, err := probe.Load(run, 1)
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := mem.List(run)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqs) != ref.Saves {
			t.Fatalf("store holds %d checkpoints, want the %d the uninterrupted run saved", len(seqs), ref.Saves)
		}
		stored := 0
		var words [stateSlots]uint64 // each slot's OR over the payloads
		for _, seq := range seqs {
			frame, err := mem.Load(run, seq)
			if err != nil {
				t.Fatal(err)
			}
			stored += len(frame)
			payload, err := store.Checked(mem).Load(run, seq)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeState(payload); err != nil {
				t.Fatal(err)
			}
			for i := range words {
				words[i] |= getU64(payload[4+8*i:])
			}
		}
		for i, v := range words {
			if v == 0 {
				t.Errorf("slot %d is zero in every payload", i)
			}
		}
		// Per checkpoint: the state header, the delta's event count and
		// the store frame; per journal event: its encoding, once.
		bound := len(seqs)*(stateHeaderSize+8+len(empty)) + eventSize*len(res.Journal)
		if stored > bound {
			t.Fatalf("store holds %d bytes for %d checkpoints and %d events, above the linear bound %d",
				stored, len(seqs), len(res.Journal), bound)
		}
	})
}

// TestReadmittedSecondaryNeverFailsOverAgain pins the ladder after a
// ride-out probe re-admits the secondary: the run is already on the
// failover store, so its next give-ups lead to LevelDown. A second
// failover would journal another EvDegrade(failover) and reset the
// chain base, so the next payload would carry the whole journal again.
func TestReadmittedSecondaryNeverFailsOverAgain(t *testing.T) {
	w := segmentChain(t, 40)
	res, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.05}, 7, 1), Options{
		RunID: "readmit", Downtime: 1,
		Store: store.Checked(store.NewFaultStore(store.NewMemStore(), store.FaultPlan{Seed: 1, WriteFail: 1})),
		Adaptive: &AdaptiveOptions{
			Retry: NoRetry{}, DownAfter: 2, ProbeEvery: 2,
			Secondary: store.Checked(store.NewFaultStore(store.NewMemStore(), store.FaultPlan{Seed: 4, WriteFail: 0.5})),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var moves []DegradeLevel
	for _, e := range res.Journal {
		if e.Kind == EvDegrade {
			moves = append(moves, DegradeLevel(e.Arg))
		}
	}
	if len(moves) < 5 || moves[0] != LevelFailover {
		t.Fatalf("ladder moves %v, want a failover and at least two re-admissions", moves)
	}
	for i, lv := range moves[1:] {
		if want := []DegradeLevel{LevelDown, LevelDegraded}[i%2]; lv != want {
			t.Fatalf("ladder moves %v: move %d is %v, want %v (down and re-admission alternate on the secondary)", moves, i+1, lv, want)
		}
	}
}
