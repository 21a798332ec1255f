package heuristic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/failure"
)

func expSurvival(lambda float64) Survival {
	return func(t float64) float64 { return math.Exp(-lambda * t) }
}

func TestFreshPlatformSurvival(t *testing.T) {
	w, _ := failure.NewWeibull(0.7, 100)
	s, err := FreshPlatformSurvival(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s(10), math.Pow(w.Survival(10), 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("S(10) = %v, want %v", got, want)
	}
	if s(0) != 1 {
		t.Errorf("S(0) = %v", s(0))
	}
	if _, err := FreshPlatformSurvival(w, 0); err == nil {
		t.Error("p = 0 should fail")
	}
}

func TestAgedPlatformSurvival(t *testing.T) {
	w, _ := failure.NewWeibull(0.7, 100)
	s, err := AgedPlatformSurvival(w, []float64{0, 50, 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s(0)-1) > 1e-12 {
		t.Errorf("S(0) = %v, want 1", s(0))
	}
	want := w.Survival(10) / w.Survival(0) *
		w.Survival(60) / w.Survival(50) *
		w.Survival(210) / w.Survival(200)
	if got := s(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("aged S(10) = %v, want %v", got, want)
	}
	// Decreasing hazard: aged processors are safer, so aged survival
	// exceeds fresh survival for shape < 1.
	fresh, _ := FreshPlatformSurvival(w, 3)
	if s(10) <= fresh(10) {
		t.Errorf("aged survival %v should exceed fresh %v for k<1", s(10), fresh(10))
	}
	if _, err := AgedPlatformSurvival(w, nil); err == nil {
		t.Error("no ages should fail")
	}
	if _, err := AgedPlatformSurvival(w, []float64{-1}); err == nil {
		t.Error("negative age should fail")
	}
}

// EvaluateSavedWork is the test oracle for the DP: it computes E[saved]
// for an explicit placement, crediting work at each checkpoint completion
// time, weighted by survival.
// checkpointCosts[i] is the cost of the checkpoint after position i.
func EvaluateSavedWork(weights, checkpointCosts []float64, checkpointAfter []bool, s Survival) (float64, error) {
	n := len(weights)
	if len(checkpointCosts) != n || len(checkpointAfter) != n {
		return 0, fmt.Errorf("heuristic: inconsistent lengths (%d weights, %d costs, %d decisions)",
			n, len(checkpointCosts), len(checkpointAfter))
	}
	if n == 0 {
		return 0, fmt.Errorf("heuristic: empty chain")
	}
	if !checkpointAfter[n-1] {
		return 0, fmt.Errorf("heuristic: final position must carry a checkpoint")
	}
	var total, t, securedW, lastSecured float64
	for i := 0; i < n; i++ {
		t += weights[i]
		securedW += weights[i]
		if checkpointAfter[i] {
			t += checkpointCosts[i]
			total += (securedW - lastSecured) * s(t)
			lastSecured = securedW
		}
	}
	return total, nil
}

func TestEvaluateSavedWork(t *testing.T) {
	weights := []float64{4, 6}
	costs := []float64{1, 1}
	s := expSurvival(0.1)
	// Checkpoint only at the end: saved = 10·S(11).
	got, err := EvaluateSavedWork(weights, costs, []bool{false, true}, s)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * s(11)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("end-only = %v, want %v", got, want)
	}
	// Checkpoint after both: 4·S(5) + 6·S(12).
	got, err = EvaluateSavedWork(weights, costs, []bool{true, true}, s)
	if err != nil {
		t.Fatal(err)
	}
	want = 4*s(5) + 6*s(12)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("both = %v, want %v", got, want)
	}
	if _, err := EvaluateSavedWork(weights, costs, []bool{true, false}, s); err == nil {
		t.Error("missing final checkpoint should fail")
	}
	if _, err := EvaluateSavedWork(weights, costs[:1], []bool{true, true}, s); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestMaxSavedWorkDPMatchesBruteForce(t *testing.T) {
	weights := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	const c = 0.8
	w, _ := failure.NewWeibull(0.7, 40)
	s, _ := FreshPlatformSurvival(w, 1)

	dp, err := MaxSavedWorkDP(weights, c, s)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, len(weights))
	for i := range costs {
		costs[i] = c
	}
	// Brute force over all placements.
	n := len(weights)
	best := -1.0
	ck := make([]bool, n)
	ck[n-1] = true
	for mask := 0; mask < 1<<(n-1); mask++ {
		for i := 0; i < n-1; i++ {
			ck[i] = mask&(1<<i) != 0
		}
		v, err := EvaluateSavedWork(weights, costs, ck, s)
		if err != nil {
			t.Fatal(err)
		}
		if v > best {
			best = v
		}
	}
	if math.Abs(dp.SavedWork-best) > 1e-9 {
		t.Errorf("DP %v ≠ brute force %v", dp.SavedWork, best)
	}
	// The DP's placement must evaluate to its claimed value.
	v, err := EvaluateSavedWork(weights, costs, dp.CheckpointAfter, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-dp.SavedWork) > 1e-9 {
		t.Errorf("placement evaluates to %v, DP claims %v", v, dp.SavedWork)
	}
}

func TestMaxSavedWorkMoreCheckpointsWhenCheap(t *testing.T) {
	weights := make([]float64, 10)
	for i := range weights {
		weights[i] = 5
	}
	s := expSurvival(0.05)
	cheap, err := MaxSavedWorkDP(weights, 1e-6, s)
	if err != nil {
		t.Fatal(err)
	}
	dear, err := MaxSavedWorkDP(weights, 50, s)
	if err != nil {
		t.Fatal(err)
	}
	nCheap, nDear := 0, 0
	for i := range weights {
		if cheap.CheckpointAfter[i] {
			nCheap++
		}
		if dear.CheckpointAfter[i] {
			nDear++
		}
	}
	if nCheap != len(weights) {
		t.Errorf("free checkpoints: %d placed, want all", nCheap)
	}
	// Unlike the makespan objective, maximizing saved work can still
	// afford a few expensive checkpoints (each secures its prefix even
	// when it delays the rest); the invariant is monotonicity in cost.
	if nDear >= nCheap {
		t.Errorf("expensive checkpoints should reduce placements: %d vs %d", nDear, nCheap)
	}
	// And the expensive optimum must not lose to the end-only placement.
	costs := make([]float64, len(weights))
	for i := range costs {
		costs[i] = 50
	}
	endOnly := make([]bool, len(weights))
	endOnly[len(weights)-1] = true
	endVal, err := EvaluateSavedWork(weights, costs, endOnly, s)
	if err != nil {
		t.Fatal(err)
	}
	if dear.SavedWork < endVal-1e-12 {
		t.Errorf("DP %v worse than end-only %v", dear.SavedWork, endVal)
	}
}

func TestInputValidation(t *testing.T) {
	s := expSurvival(0.1)
	if _, err := MaxSavedWorkDP(nil, 1, s); err == nil {
		t.Error("empty chain should fail")
	}
	if _, err := MaxSavedWorkDP([]float64{1}, -1, s); err == nil {
		t.Error("negative cost should fail")
	}
}
