package core

// Property-based tests (testing/quick) over the core invariants:
//   - the chain DP never loses to any randomly drawn placement;
//   - segment decomposition is a partition and its expectations add;
//   - the exact independent solver never loses to random partitions;
//   - every solver output evaluates to its claimed expectation.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/expectation"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// chainFromSeed builds a small random chain problem deterministically
// from fuzz input.
func chainFromSeed(seed uint64, n int, lambda float64) *ChainProblem {
	r := rng.New(seed)
	m, _ := expectation.NewModel(lambda, r.Range(0, 2))
	cp := &ChainProblem{
		Weights:         make([]float64, n),
		Ckpt:            make([]float64, n),
		Rec:             make([]float64, n),
		InitialRecovery: r.Range(0, 1),
		Model:           m,
	}
	for i := 0; i < n; i++ {
		cp.Weights[i] = r.Range(0.1, 10)
		cp.Ckpt[i] = r.Range(0.01, 2)
		cp.Rec[i] = r.Range(0.01, 2)
	}
	return cp
}

func TestPropertyDPNeverLosesToRandomPlacement(t *testing.T) {
	f := func(seed uint64, mask uint16, nRaw uint8, lRaw float64) bool {
		n := 2 + int(nRaw%14)
		lambda := math.Abs(math.Mod(lRaw, 0.5)) + 1e-4
		cp := chainFromSeed(seed, n, lambda)
		dp, err := SolveChainDP(cp)
		if err != nil {
			return false
		}
		ck := make([]bool, n)
		for i := 0; i < n-1; i++ {
			ck[i] = mask&(1<<uint(i%16)) != 0 && (seed>>uint(i%60))&1 == 1
		}
		ck[n-1] = true
		e, err := cp.Makespan(ck)
		if err != nil {
			return false
		}
		return dp.Expected <= e+1e-9*math.Abs(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropertySegmentExpectationsAdd(t *testing.T) {
	f := func(seed uint64, mask uint16, nRaw uint8) bool {
		n := 2 + int(nRaw%14)
		cp := chainFromSeed(seed, n, 0.05)
		ck := make([]bool, n)
		for i := 0; i < n-1; i++ {
			ck[i] = mask&(1<<uint(i%16)) != 0
		}
		ck[n-1] = true
		total, err := cp.Makespan(ck)
		if err != nil {
			return false
		}
		segs, err := cp.Segments(ck)
		if err != nil {
			return false
		}
		// Segments must partition positions.
		covered := 0
		prevEnd := -1
		var sum float64
		for _, s := range segs {
			if s.Start != prevEnd+1 || s.End < s.Start {
				return false
			}
			covered += s.End - s.Start + 1
			prevEnd = s.End
			sum += cp.Model.ExpectedTime(s.Work, s.Checkpoint, s.Recovery)
		}
		return covered == n && numeric.AlmostEqual(sum, total, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropertySegmentExpectationMatchesDirect(t *testing.T) {
	// SegmentExpectation(start, end) must equal the model formula on the
	// summed weights.
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		n := 6
		cp := chainFromSeed(seed, n, 0.07)
		a := int(aRaw) % n
		b := int(bRaw) % n
		if a > b {
			a, b = b, a
		}
		var w float64
		for i := a; i <= b; i++ {
			w += cp.Weights[i]
		}
		rec := cp.InitialRecovery
		if a > 0 {
			rec = cp.Rec[a-1]
		}
		want := cp.Model.ExpectedTime(w, cp.Ckpt[b], rec)
		return numeric.AlmostEqual(cp.SegmentExpectation(a, b), want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExactIndependentNeverLosesToRandomPartition(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%8)
		r := rng.New(seed)
		m, _ := expectation.NewModel(r.Range(0.01, 0.3), 0)
		ip := &IndependentProblem{
			Weights:    make([]float64, n),
			Checkpoint: r.Range(0.05, 1),
			Recovery:   r.Range(0.05, 1),
			Model:      m,
		}
		for i := range ip.Weights {
			ip.Weights[i] = r.Range(0.5, 8)
		}
		exact, err := SolveIndependentExact(ip)
		if err != nil {
			return false
		}
		// Random partition: assign each task a random group label.
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.IntN(n)
		}
		groupsMap := map[int][]int{}
		for i, l := range labels {
			groupsMap[l] = append(groupsMap[l], i)
		}
		var groups [][]int
		for _, g := range groupsMap {
			groups = append(groups, g)
		}
		e, err := ip.Evaluate(groups)
		if err != nil {
			return false
		}
		return exact.Expected <= e+1e-9*e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMakespanMonotoneInLambda(t *testing.T) {
	// For a fixed placement, a higher failure rate can only increase the
	// expected makespan.
	f := func(seed uint64, mask uint16) bool {
		n := 8
		cpLo := chainFromSeed(seed, n, 0.02)
		cpHi := chainFromSeed(seed, n, 0.02)
		mHi, _ := expectation.NewModel(0.2, cpLo.Model.Downtime)
		cpHi.Model = mHi
		ck := make([]bool, n)
		for i := 0; i < n-1; i++ {
			ck[i] = mask&(1<<uint(i%16)) != 0
		}
		ck[n-1] = true
		lo, err1 := cpLo.Makespan(ck)
		hi, err2 := cpHi.Makespan(ck)
		return err1 == nil && err2 == nil && hi >= lo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyVarianceAdditive(t *testing.T) {
	// MakespanVariance must equal the sum of per-segment variances.
	f := func(seed uint64, mask uint16) bool {
		n := 8
		cp := chainFromSeed(seed, n, 0.08)
		ck := make([]bool, n)
		for i := 0; i < n-1; i++ {
			ck[i] = mask&(1<<uint(i%16)) != 0
		}
		ck[n-1] = true
		v, err := cp.MakespanVariance(ck)
		if err != nil || v < 0 {
			return false
		}
		segs, err := cp.Segments(ck)
		if err != nil {
			return false
		}
		var sum float64
		for _, s := range segs {
			sum += cp.Model.Variance(s.Work, s.Checkpoint, s.Recovery)
		}
		return numeric.AlmostEqual(sum, v, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// SegmentExpectation returns the exact expected time (Proposition 1) of
// executing positions [start, end] and checkpointing after end, given that
// the previous checkpoint is the one preceding start.
func (cp *ChainProblem) SegmentExpectation(start, end int) float64 {
	var w float64
	for i := start; i <= end; i++ {
		w += cp.Weights[i]
	}
	return cp.Model.ExpectedTime(w, cp.Ckpt[end], cp.recoveryBefore(start))
}
