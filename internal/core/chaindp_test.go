package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// SolveChainDPRecursive computes the same optimum with the memoized
// recursion written exactly as Algorithm 1 in the paper (DPMakespan(x, n)
// returning the pair ⟨best expectation, index of the task preceding the
// first checkpoint⟩). It is a test oracle: tests confirm the transcription
// of the published pseudo-code agrees with the iterative solver.
func SolveChainDPRecursive(cp *ChainProblem) (ChainResult, error) {
	if err := cp.Validate(); err != nil {
		return ChainResult{}, err
	}
	n := cp.Len()
	prefix := make([]float64, n+1)
	for i, w := range cp.Weights {
		prefix[i+1] = prefix[i] + w
	}
	type entry struct {
		exp     float64
		numTask int
		done    bool
	}
	memo := make([]entry, n)

	// dpMakespan mirrors Algorithm 1 with x 0-based: it computes the
	// optimal expectation for executing positions x..n−1.
	var dpMakespan func(x int) (float64, int)
	dpMakespan = func(x int) (float64, int) {
		if memo[x].done {
			return memo[x].exp, memo[x].numTask
		}
		rec := cp.recoveryBefore(x)
		if x == n-1 {
			e := cp.Model.ExpectedTime(cp.Weights[n-1], cp.Ckpt[n-1], rec)
			memo[x] = entry{exp: e, numTask: n - 1, done: true}
			return e, n - 1
		}
		// "best ← execute everything to the end, checkpoint after T_n."
		best := cp.Model.ExpectedTime(prefix[n]-prefix[x], cp.Ckpt[n-1], rec)
		numTask := n - 1
		for j := x; j <= n-2; j++ {
			expSucc, _ := dpMakespan(j + 1)
			cur := expSucc + cp.Model.ExpectedTime(prefix[j+1]-prefix[x], cp.Ckpt[j], rec)
			if cur < best {
				best = cur
				numTask = j
			}
		}
		memo[x] = entry{exp: best, numTask: numTask, done: true}
		return best, numTask
	}

	exp, _ := dpMakespan(0)
	ck := make([]bool, n)
	for x := 0; x < n; {
		_, j := dpMakespan(x)
		ck[j] = true
		x = j + 1
	}
	return ChainResult{Expected: exp, CheckpointAfter: ck}, nil
}

func mustModelT(t *testing.T, lambda, d float64) expectation.Model {
	t.Helper()
	m, err := expectation.NewModel(lambda, d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomChainProblem(t *testing.T, n int, seed uint64, lambda, d float64) *ChainProblem {
	t.Helper()
	r := rng.New(seed)
	g, err := dag.Chain(n, dag.DefaultWeights(), r)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := NewChainProblem(g, mustModelT(t, lambda, d), 0)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestChainProblemValidation(t *testing.T) {
	m := mustModelT(t, 0.1, 0)
	bad := &ChainProblem{Weights: []float64{1}, Ckpt: []float64{1, 2}, Rec: []float64{1}, Model: m}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched arrays should fail")
	}
	bad2 := &ChainProblem{Weights: []float64{-1}, Ckpt: []float64{1}, Rec: []float64{1}, Model: m}
	if err := bad2.Validate(); err == nil {
		t.Error("negative weight should fail")
	}
	empty := &ChainProblem{Model: m}
	if err := empty.Validate(); err == nil {
		t.Error("empty problem should fail")
	}
	bad3 := &ChainProblem{Weights: []float64{1}, Ckpt: []float64{1}, Rec: []float64{1}, InitialRecovery: -1, Model: m}
	if err := bad3.Validate(); err == nil {
		t.Error("negative initial recovery should fail")
	}
}

func TestNewChainProblemRejectsNonChain(t *testing.T) {
	g := dag.New()
	g.MustAddTask(dag.Task{Weight: 1})
	g.MustAddTask(dag.Task{Weight: 1})
	if _, _, err := NewChainProblem(g, mustModelT(t, 0.1, 0), 0); err == nil {
		t.Error("independent tasks are not a chain")
	}
}

func TestSingleTaskChain(t *testing.T) {
	m := mustModelT(t, 0.1, 0.5)
	cp := &ChainProblem{
		Weights: []float64{10}, Ckpt: []float64{1}, Rec: []float64{2},
		InitialRecovery: 0.3, Model: m,
	}
	res, err := SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := m.ExpectedTime(10, 1, 0.3)
	if !numeric.AlmostEqual(res.Expected, want, 1e-12) {
		t.Errorf("single task E = %v, want %v", res.Expected, want)
	}
	if !res.CheckpointAfter[0] {
		t.Error("single position must be checkpointed")
	}
}

func TestDPMatchesBruteForce(t *testing.T) {
	// The paper's Proposition 3: the DP is optimal. Exhaustive check on
	// random heterogeneous chains.
	for seed := uint64(0); seed < 12; seed++ {
		for _, lambda := range []float64{1e-3, 0.02, 0.2} {
			cp := randomChainProblem(t, 10, seed, lambda, 0.4)
			dp, err := SolveChainDP(cp)
			if err != nil {
				t.Fatal(err)
			}
			bf, err := BruteForceChain(cp)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(dp.Expected, bf.Expected, 1e-9) {
				t.Errorf("seed %d λ=%v: DP %v ≠ brute force %v", seed, lambda, dp.Expected, bf.Expected)
			}
			// The DP's own placement must evaluate to its claimed value.
			ev, err := cp.Makespan(dp.CheckpointAfter)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(ev, dp.Expected, 1e-9) {
				t.Errorf("seed %d: plan evaluates to %v, DP claims %v", seed, ev, dp.Expected)
			}
		}
	}
}

func TestRecursiveMatchesIterative(t *testing.T) {
	// The paper-faithful memoized recursion and the iterative DP must
	// agree on value and placement.
	for seed := uint64(20); seed < 30; seed++ {
		cp := randomChainProblem(t, 15, seed, 0.05, 0.2)
		it, err := SolveChainDP(cp)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := SolveChainDPRecursive(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(it.Expected, rec.Expected, 1e-12) {
			t.Errorf("seed %d: iterative %v ≠ recursive %v", seed, it.Expected, rec.Expected)
		}
		for i := range it.CheckpointAfter {
			if it.CheckpointAfter[i] != rec.CheckpointAfter[i] {
				t.Errorf("seed %d: placements differ at %d", seed, i)
				break
			}
		}
	}
}

func TestDPBeatsBaselines(t *testing.T) {
	for seed := uint64(40); seed < 46; seed++ {
		cp := randomChainProblem(t, 20, seed, 0.05, 0.3)
		dp, err := SolveChainDP(cp)
		if err != nil {
			t.Fatal(err)
		}
		always, err := AlwaysCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		never, err := NeverCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		period, err := PeriodicCheckpoint(cp, expectation.DalyPeriod(0.3, cp.Model.Lambda))
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1e-9
		if dp.Expected > always.Expected+eps || dp.Expected > never.Expected+eps || dp.Expected > period.Expected+eps {
			t.Errorf("seed %d: DP %v not ≤ baselines (%v, %v, %v)",
				seed, dp.Expected, always.Expected, never.Expected, period.Expected)
		}
	}
}

func TestDPLimitBehaviors(t *testing.T) {
	// Very cheap checkpoints → checkpoint everywhere; very expensive →
	// only the mandatory final one.
	m := mustModelT(t, 0.1, 0)
	n := 8
	mk := func(c float64) *ChainProblem {
		cp := &ChainProblem{
			Weights: make([]float64, n), Ckpt: make([]float64, n), Rec: make([]float64, n), Model: m,
		}
		for i := 0; i < n; i++ {
			cp.Weights[i] = 5
			cp.Ckpt[i] = c
			cp.Rec[i] = c
		}
		return cp
	}
	cheap, err := SolveChainDP(mk(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if got := cheap.Positions(); len(got) != n {
		t.Errorf("free checkpoints: placed %d of %d", len(got), n)
	}
	dear, err := SolveChainDP(mk(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if got := dear.Positions(); len(got) != 1 || got[0] != n-1 {
		t.Errorf("prohibitive checkpoints: positions %v, want only final", got)
	}
}

func TestBruteForceCap(t *testing.T) {
	cp := randomChainProblem(t, 25, 1, 0.01, 0)
	if _, err := BruteForceChain(cp); err == nil {
		t.Error("brute force beyond the cap should fail")
	}
}

func TestMakespanErrors(t *testing.T) {
	cp := randomChainProblem(t, 4, 2, 0.01, 0)
	if _, err := cp.Makespan([]bool{true, true}); err == nil {
		t.Error("wrong-length vector should fail")
	}
	if _, err := cp.Makespan([]bool{true, true, true, false}); err == nil {
		t.Error("missing final checkpoint should fail")
	}
}

func TestSegments(t *testing.T) {
	m := mustModelT(t, 0.1, 0)
	cp := &ChainProblem{
		Weights:         []float64{1, 2, 3, 4},
		Ckpt:            []float64{10, 20, 30, 40},
		Rec:             []float64{11, 21, 31, 41},
		InitialRecovery: 7,
		Model:           m,
	}
	segs, err := cp.Segments([]bool{false, true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("got %d segments", len(segs))
	}
	s0, s1 := segs[0], segs[1]
	if s0.Work != 3 || s0.Checkpoint != 20 || s0.Recovery != 7 || s0.Start != 0 || s0.End != 1 {
		t.Errorf("segment 0 = %+v", s0)
	}
	if s1.Work != 7 || s1.Checkpoint != 40 || s1.Recovery != 21 || s1.Start != 2 || s1.End != 3 {
		t.Errorf("segment 1 = %+v", s1)
	}
}

// TestSegmentsAllocs: Segments sizes its result once from the
// checkpoint count instead of growing it by append.
func TestSegmentsAllocs(t *testing.T) {
	cp := randomChainProblem(t, 64, 3, 0.01, 0)
	ck := make([]bool, 64)
	for i := 3; i < 64; i += 4 {
		ck[i] = true
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = cp.Segments(ck) }); n != 1 {
		t.Errorf("Segments over 16 checkpoints: %v allocs, want 1", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailureFreeMakespan(t *testing.T) {
	cp := randomChainProblem(t, 6, 3, 0.01, 0)
	ck := make([]bool, 6)
	ck[5] = true
	got, err := cp.FailureFreeMakespan(ck)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, w := range cp.Weights {
		want += w
	}
	want += cp.Ckpt[5]
	if !numeric.AlmostEqual(got, want, 1e-12) {
		t.Errorf("failure-free = %v, want %v", got, want)
	}
	// Expected makespan dominates the failure-free one.
	e, _ := cp.Makespan(ck)
	if e < got {
		t.Errorf("expected %v below failure-free %v", e, got)
	}
}

func TestMakespanSubadditivityOfCheckpointRemoval(t *testing.T) {
	// Adding a checkpoint to a placement changes the makespan exactly as
	// the segment split predicts; check internal consistency on a case
	// where checkpointing helps: long chain, high λ.
	m := mustModelT(t, 0.5, 0.1)
	n := 6
	cp := &ChainProblem{
		Weights: make([]float64, n), Ckpt: make([]float64, n), Rec: make([]float64, n), Model: m,
	}
	for i := range cp.Weights {
		cp.Weights[i] = 3
		cp.Ckpt[i] = 0.1
		cp.Rec[i] = 0.1
	}
	never, _ := NeverCheckpoint(cp)
	always, _ := AlwaysCheckpoint(cp)
	if always.Expected >= never.Expected {
		t.Errorf("with λ=0.5 checkpoints must pay off: always %v vs never %v", always.Expected, never.Expected)
	}
}

func TestPeriodicCheckpointDegenerate(t *testing.T) {
	cp := randomChainProblem(t, 5, 9, 0.01, 0)
	res, err := PeriodicCheckpoint(cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions()) != 5 {
		t.Errorf("period 0 should checkpoint everywhere, got %v", res.Positions())
	}
	res2, err := PeriodicCheckpoint(cp, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Positions(); len(got) != 1 || got[0] != 4 {
		t.Errorf("infinite period should only keep final checkpoint, got %v", got)
	}
}

func TestInitialRecoveryMatters(t *testing.T) {
	m := mustModelT(t, 0.2, 0)
	base := &ChainProblem{
		Weights: []float64{5, 5}, Ckpt: []float64{0.5, 0.5}, Rec: []float64{0.5, 0.5}, Model: m,
	}
	withR0 := &ChainProblem{
		Weights: []float64{5, 5}, Ckpt: []float64{0.5, 0.5}, Rec: []float64{0.5, 0.5},
		InitialRecovery: 3, Model: m,
	}
	e0, _ := SolveChainDP(base)
	e1, _ := SolveChainDP(withR0)
	if e1.Expected <= e0.Expected {
		t.Errorf("positive R₀ must increase the optimum: %v vs %v", e1.Expected, e0.Expected)
	}
}

// TestChainDPBytesPerTask pins SolveChainDP's heap bytes per task on a
// 10⁵-task DefaultWeights chain: the kernel tables, the row values and
// decisions, and the result. The figure is a budget: a rise is a
// regression, and a drop should re-pin the lower figure.
func TestChainDPBytesPerTask(t *testing.T) {
	const n, runs, want = 100000, 4, 42
	cp := defaultWeightsChain(t, n, 0.001)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := SolveChainDP(cp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := math.Round(float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)); got != want {
		t.Errorf("SolveChainDP: %v bytes/task, budget %v", got, want)
	}
}
