package failure

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestExponentialProcessRateAndRenewal(t *testing.T) {
	r := rng.New(1)
	p := NewExponentialProcess(2, r)
	if p.Rate() != 2 {
		t.Errorf("Rate = %v", p.Rate())
	}
	// Mean inter-failure time should be 1/2.
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += p.NextFailure()
		p.ObserveFailure()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean gap = %v, want ≈ 0.5", mean)
	}
}

func TestExponentialProcessAdvance(t *testing.T) {
	r := rng.New(2)
	p := NewExponentialProcess(1, r)
	next := p.NextFailure()
	if next <= 0 {
		t.Fatal("next failure must be positive")
	}
	p.Advance(next / 2)
	got := p.NextFailure()
	if math.Abs(got-next/2) > 1e-12 {
		t.Errorf("after Advance, next = %v, want %v", got, next/2)
	}
	// Advancing past the failure should redraw a positive clock.
	p.Advance(got + 1)
	if p.NextFailure() <= 0 {
		t.Error("clock after over-advance should be a fresh positive draw")
	}
}

func TestSuperposedExponentialMatchesPlatformRate(t *testing.T) {
	// Superposing p Exp(λproc) processes gives platform rate p·λproc.
	const procs = 8
	const lambdaProc = 0.05
	r := rng.New(3)
	e, _ := NewExponential(lambdaProc)
	sp, err := NewSuperposedProcess(e, procs, RejuvenateFailedOnly, r)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Rate() != procs*lambdaProc {
		t.Errorf("Rate = %v", sp.Rate())
	}
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		gap := sp.NextFailure()
		sum += gap
		sp.ObserveFailure()
	}
	mean := sum / n
	want := 1 / (procs * lambdaProc)
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean platform gap = %v, want ≈ %v", mean, want)
	}
}

func TestSuperposedValidation(t *testing.T) {
	if _, err := NewSuperposedProcess(Exponential{Lambda: 1}, 0, RejuvenateAll, rng.New(1)); err == nil {
		t.Error("zero processors should be rejected")
	}
}

func TestSuperposedAdvanceAges(t *testing.T) {
	r := rng.New(4)
	sp, _ := NewSuperposedProcess(Deterministic{Value: 10}, 3, RejuvenateFailedOnly, r)
	before := sp.Ages()
	sp.Advance(4)
	after := sp.Ages()
	for i := range before {
		if math.Abs(after[i]-(before[i]-4)) > 1e-12 {
			t.Errorf("proc %d: age %v → %v, want −4", i, before[i], after[i])
		}
	}
}

func TestSuperposedRejuvenationPolicies(t *testing.T) {
	// With deterministic gaps, failed-only keeps other clocks aged while
	// rejuvenate-all resets them.
	r := rng.New(5)
	failedOnly, _ := NewSuperposedProcess(Deterministic{Value: 10}, 2, RejuvenateFailedOnly, r)
	failedOnly.Advance(6)
	failedOnly.ObserveFailure() // both at 4 → both fail; one resets to 10, other pinned at 0
	ages := failedOnly.Ages()
	has10, has0 := false, false
	for _, a := range ages {
		if a == 10 {
			has10 = true
		}
		if a == 0 {
			has0 = true
		}
	}
	if !has10 || !has0 {
		t.Errorf("failed-only ages = %v, want one fresh (10) and one due (0)", ages)
	}

	all, _ := NewSuperposedProcess(Deterministic{Value: 10}, 2, RejuvenateAll, rng.New(6))
	all.Advance(6)
	all.ObserveFailure()
	for _, a := range all.Ages() {
		if a != 10 {
			t.Errorf("rejuvenate-all should reset every clock, got %v", all.Ages())
		}
	}
}

func TestTraceProcess(t *testing.T) {
	tp, err := NewTraceProcess([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Rate() != 0 {
		t.Error("trace process has no constant rate")
	}
	if tp.NextFailure() != 1 {
		t.Errorf("first gap = %v", tp.NextFailure())
	}
	tp.ObserveFailure()
	if tp.NextFailure() != 2 {
		t.Errorf("second gap = %v", tp.NextFailure())
	}
	tp.Advance(0.5)
	if tp.NextFailure() != 1.5 {
		t.Errorf("after advance = %v", tp.NextFailure())
	}
	tp.ObserveFailure()
	tp.ObserveFailure() // wraps around
	if tp.NextFailure() != 1 {
		t.Errorf("wrap-around gap = %v", tp.NextFailure())
	}
}

func TestTraceProcessValidation(t *testing.T) {
	if _, err := NewTraceProcess(nil); err == nil {
		t.Error("empty trace should be rejected")
	}
	if _, err := NewTraceProcess([]float64{1, -2}); err == nil {
		t.Error("negative gap should be rejected")
	}
	if _, err := NewTraceProcess([]float64{math.NaN()}); err == nil {
		t.Error("NaN gap should be rejected")
	}
}

// Ages returns, for laws where it matters, the elapsed life of each
// processor clock expressed as time-to-failure remaining.
func (sp *ScanProcess) Ages() []float64 {
	out := make([]float64, len(sp.remain))
	copy(out, sp.remain)
	return out
}

// Ages returns, for laws where it matters, the elapsed life of each
// processor clock expressed as time-to-failure remaining. It materializes
// every lazy clock first.
func (sp *SuperposedProcess) Ages() []float64 {
	for sp.pending > 0 {
		sp.materialize()
	}
	out := make([]float64, len(sp.abs))
	for i, a := range sp.abs {
		out[i] = a - sp.clock
	}
	return out
}
