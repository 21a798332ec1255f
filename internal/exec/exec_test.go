package exec

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/store"
)

// chainProblem builds a small heterogeneous chain problem with a
// non-trivial checkpoint vector.
func chainProblem(t *testing.T) (*core.ChainProblem, []bool) {
	t.Helper()
	m, err := expectation.NewModel(0.08, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.ChainProblem{
		Weights:         []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5},
		Ckpt:            []float64{0.5, 1, 0.25, 0.75, 0.5, 1.25, 0.5, 1, 0.25, 0.5},
		Rec:             []float64{0.4, 0.8, 0.2, 0.6, 0.4, 1.0, 0.4, 0.8, 0.2, 0.4},
		InitialRecovery: 0.3,
		Model:           m,
	}
	ck := []bool{false, true, false, false, true, false, true, false, false, true}
	return cp, ck
}

func chainWorkload(t *testing.T) *Workload {
	t.Helper()
	cp, ck := chainProblem(t)
	w, err := NewChainWorkload(cp, ck)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func approx(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*math.Max(scale, 1)
}

// TestChainWorkloadPlannedMatchesMakespan pins that the workload's
// Planned is bit-identical to the chain evaluator's Makespan.
func TestChainWorkloadPlannedMatchesMakespan(t *testing.T) {
	cp, ck := chainProblem(t)
	w := chainWorkload(t)
	want, err := cp.Makespan(ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Planned(cp.Model); got != want {
		t.Fatalf("Planned = %v, Makespan = %v", got, want)
	}
}

// TestExecuteParityWithSim drives the executor and sim.Run over the
// identical segmentation with identical failure sources: failure counts
// must match exactly, the time decomposition up to float re-association
// (the executor advances task-by-task, the simulator attempt-by-attempt).
func TestExecuteParityWithSim(t *testing.T) {
	w := chainWorkload(t)
	segs := w.CoreSegments()
	const d = 1.5
	for seed := uint64(1); seed <= 50; seed++ {
		rs, err := sim.Run(segs, NewKeyedSource(failure.Exponential{Lambda: 0.08}, seed, 1), sim.Options{Downtime: d})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.08}, seed, 1), Options{Downtime: d})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != rs.Failures {
			t.Fatalf("seed %d: failures %d, sim %d", seed, res.Failures, rs.Failures)
		}
		pairs := [][2]float64{
			{res.Makespan, rs.Makespan},
			{res.Lost, rs.Lost},
			{res.Downtime, rs.Downtime},
			{res.RecoveryTime, rs.RecoveryTime},
			{res.Useful, rs.Useful},
		}
		for i, p := range pairs {
			if !approx(p[0], p[1], 1e-9) {
				t.Fatalf("seed %d: metric %d: exec %v, sim %v", seed, i, p[0], p[1])
			}
		}
		if res.Checkpoints != w.Segments() {
			t.Fatalf("seed %d: %d checkpoints, want %d", seed, res.Checkpoints, w.Segments())
		}
		if res.Journal.Count(EvComplete) != 1 {
			t.Fatalf("seed %d: journal not completed", seed)
		}
	}
}

// TestTraceParityWithSim pins failure-for-failure parity between the
// executor's trace-replay mode and a simulator replay of the same gaps.
func TestTraceParityWithSim(t *testing.T) {
	w := chainWorkload(t)
	segs := w.CoreSegments()
	// Record plenty of exponential gaps, then replay them both ways.
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 99, 7)
	gaps := make([]float64, 400)
	for i := range gaps {
		gaps[i] = src.gapAt(uint64(i))
	}
	rs, err := sim.Run(segs, NewTraceSource(gaps, 0.08), sim.Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTraceSource(gaps, 0.08)
	res, err := Execute(w, ts, Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != rs.Failures {
		t.Fatalf("failures %d, sim %d", res.Failures, rs.Failures)
	}
	if !approx(res.Makespan, rs.Makespan, 1e-9) {
		t.Fatalf("makespan %v, sim %v", res.Makespan, rs.Makespan)
	}
	if ts.Exhausted() {
		t.Fatal("400 gaps exhausted unexpectedly")
	}
}

// TestTraceExhaustion pins the trace-replay exhaustion contract: a
// too-short recording completes failure-free past its end and the
// source flags it.
func TestTraceExhaustion(t *testing.T) {
	w := chainWorkload(t)
	ts := NewTraceSource([]float64{2.5}, 0.08)
	res, err := Execute(w, ts, Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Exhausted() {
		t.Fatal("single-gap trace not flagged exhausted")
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want exactly the one recorded gap", res.Failures)
	}
}

// TestFailureBudget pins the non-termination guard.
func TestFailureBudget(t *testing.T) {
	w := chainWorkload(t)
	gaps := make([]float64, 100)
	for i := range gaps {
		gaps[i] = 0.01 // far shorter than any piece: no progress possible
	}
	_, err := Execute(w, NewTraceSource(gaps, 0), Options{Downtime: 0, MaxFailures: 5})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
}

// TestKeyedSourceRestoreRewinds pins the position-indexed determinism
// that replay correctness rests on: restoring an earlier state replays
// the exact same residual sequence.
func TestKeyedSourceRestoreRewinds(t *testing.T) {
	src := NewKeyedSource(failure.Exponential{Lambda: 0.5}, 11, 3)
	src.Advance(0.7)
	src.ObserveFailure()
	src.Advance(1.3)
	mark := src.State()
	var tail []float64
	for i := 0; i < 10; i++ {
		tail = append(tail, src.NextFailure())
		src.ObserveFailure()
	}
	src.Restore(mark)
	for i := 0; i < 10; i++ {
		if got := src.NextFailure(); got != tail[i] {
			t.Fatalf("replayed residual %d = %v, want %v", i, got, tail[i])
		}
		src.ObserveFailure()
	}
}

// TestKeyedSourceDrawAllocs: drawing the next gap rekeys the source's
// one stream and allocates nothing.
func TestKeyedSourceDrawAllocs(t *testing.T) {
	src := NewKeyedSource(failure.Exponential{Lambda: 0.5}, 11, 3)
	if n := testing.AllocsPerRun(100, src.ObserveFailure); n != 0 {
		t.Errorf("KeyedSource draw: %v allocs, budget 0", n)
	}
}

// TestStoreDoesNotPerturbExecution pins that on a store that charges
// no latency the store path is pure observation: with default options,
// the compute events and the metrics equal the store-less run's, every
// commit journals one health and one save-result event, and nothing
// replans, gives up or moves down the ladder. TestAdaptiveCleanStore-
// MatchesLegacy covers the same with tuned options.
func TestStoreDoesNotPerturbExecution(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1) }
	bare, err := Execute(w, src(), Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := Execute(w, src(), Options{Downtime: 1, Store: store.Checked(store.NewMemStore())})
	if err != nil {
		t.Fatal(err)
	}
	if !stored.Journal.Compute().Equal(bare.Journal) {
		t.Fatal("compute events differ with a store attached")
	}
	if stored.Metrics != bare.Metrics {
		t.Fatalf("metrics differ with a store attached: %+v vs %+v", stored.Metrics, bare.Metrics)
	}
	if stored.Saves != w.Segments() || stored.Journal.Count(EvHealth) != w.Segments() ||
		stored.Journal.Count(EvSaveResult) != w.Segments() {
		t.Fatalf("saves %d, health %d, save results %d: want one of each per commit (%d)",
			stored.Saves, stored.Journal.Count(EvHealth), stored.Journal.Count(EvSaveResult), w.Segments())
	}
	if stored.Replans != 0 || stored.GiveUps != 0 || stored.Level != LevelHealthy {
		t.Fatalf("healthy store perturbed the ladder: %+v", *stored)
	}
}

// TestResumeFingerprintMismatch pins the loud failure on resuming a
// different workload's checkpoints.
func TestResumeFingerprintMismatch(t *testing.T) {
	w := chainWorkload(t)
	st := store.NewMemStore()
	if _, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 1), Options{Downtime: 1, Store: st}); err != nil {
		t.Fatal(err)
	}
	// Same store, different salt → different source fingerprint.
	_, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.08}, 5, 2), Options{Downtime: 1, Store: st})
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
}

// TestJournalRoundTrip pins the canonical encoding.
func TestJournalRoundTrip(t *testing.T) {
	j := Journal{
		{Kind: EvSegmentStart, Time: 0, Arg: 0},
		{Kind: EvTaskDone, Time: 1.25, Arg: 3},
		{Kind: EvFailure, Time: 2.5},
		{Kind: EvRestored, Time: 4.75},
		{Kind: EvCheckpoint, Time: 9.5, Seq: 1},
		{Kind: EvComplete, Time: 9.5},
	}
	got, err := UnmarshalJournal(j.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(j) {
		t.Fatalf("round trip lost events: %v vs %v", got, j)
	}
	if j.Hash() == Journal(nil).Hash() {
		t.Fatal("hash does not separate journals")
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, j.Marshal()[:len(j.Marshal())-1]} {
		if _, err := UnmarshalJournal(bad); err == nil {
			t.Fatalf("malformed encoding %v accepted", bad)
		}
	}
}

// TestCampaignMatchesPlanned is the statistical planned-vs-realized
// check in miniature: the campaign mean must sit within a few standard
// errors of the exact expectation.
func TestCampaignMatchesPlanned(t *testing.T) {
	cp, _ := chainProblem(t)
	w := chainWorkload(t)
	res, err := Campaign(w, failure.Exponential{Lambda: cp.Model.Lambda}, CampaignOptions{
		Runs: 4000, Seed: 17, Downtime: cp.Model.Downtime,
	})
	if err != nil {
		t.Fatal(err)
	}
	planned := w.Planned(cp.Model)
	if diff := math.Abs(res.Makespan.Mean() - planned); diff > 4*res.Makespan.StdErr() {
		t.Fatalf("realized %v vs planned %v: off by %v > 4·stderr %v",
			res.Makespan.Mean(), planned, diff, 4*res.Makespan.StdErr())
	}
	if res.Failures.Mean() <= 0 {
		t.Fatal("campaign saw no failures; parameters too tame to validate anything")
	}
}

// TestCampaignDeterministic pins bit-identical campaign results for a
// fixed seed at every worker count: runs fold in run order, so neither
// Workers nor the host's GOMAXPROCS enters the summaries.
func TestCampaignDeterministic(t *testing.T) {
	w := chainWorkload(t)
	run := func(workers int) CampaignResult {
		res, err := Campaign(w, failure.Exponential{Lambda: 0.08}, CampaignOptions{
			Runs: 500, Seed: 23, Workers: workers, Downtime: 1.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	ref := run(1)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 4} {
			if got := run(workers); got != ref {
				t.Errorf("GOMAXPROCS=%d Workers=%d: %v, serial run %v", procs, workers, got, ref)
			}
		}
	}
}

// diamondDAG builds a small fork-join DAG with heterogeneous costs.
func diamondDAG(t *testing.T) (*dag.Graph, core.Plan) {
	t.Helper()
	g := dag.New()
	weights := []float64{2, 3, 1.5, 4, 2.5, 1, 3.5, 2}
	ids := make([]int, len(weights))
	for i, wt := range weights {
		ids[i] = g.MustAddTask(dag.Task{
			Name:       "t",
			Weight:     wt,
			Checkpoint: 0.25 * float64(i%3+1),
			Recovery:   0.2 * float64(i%2+1),
		})
	}
	// 0 fans out to 1..3, which feed 4..6, all joining at 7.
	for _, mid := range ids[1:4] {
		g.MustAddEdge(ids[0], mid)
	}
	for i, late := range ids[4:7] {
		g.MustAddEdge(ids[1+i], late)
		g.MustAddEdge(late, ids[7])
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(order, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, plan
}

// TestDAGWorkloadBothCostModels pins that DAG plans compile and execute
// under both cost models, with segment costs matching the model's
// arithmetic.
func TestDAGWorkloadBothCostModels(t *testing.T) {
	g, plan := diamondDAG(t)
	m, err := expectation.NewModel(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range []core.CostModel{
		core.LastTaskCosts{R0: 0.5},
		core.LiveSetCosts{R0: 0.5},
	} {
		w, err := NewDAGWorkload(g, plan, cm)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name(), err)
		}
		if w.Segments() != plan.NumCheckpoints() {
			t.Fatalf("%s: %d segments, want %d", cm.Name(), w.Segments(), plan.NumCheckpoints())
		}
		res, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.05}, 3, 1), Options{Downtime: 1})
		if err != nil {
			t.Fatalf("%s: %v", cm.Name(), err)
		}
		if res.Checkpoints != w.Segments() || res.Journal.Count(EvComplete) != 1 {
			t.Fatalf("%s: incomplete execution: %+v", cm.Name(), res)
		}
		// Every TaskDone Arg must be a task of the order.
		done := 0
		for _, e := range res.Journal {
			if e.Kind == EvTaskDone {
				done++
			}
		}
		if done < g.Len() {
			t.Fatalf("%s: only %d task completions for %d tasks", cm.Name(), done, g.Len())
		}
		if w.Planned(m) <= g.TotalWeight() {
			t.Fatalf("%s: planned %v not above failure-free weight", cm.Name(), w.Planned(m))
		}
	}
}

// CoreSegments returns a copy of the workload's segments, for callers
// that want to drive sim.Run on the identical segmentation.
func (w *Workload) CoreSegments() []core.Segment {
	return append([]core.Segment(nil), w.segs...)
}
