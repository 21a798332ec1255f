package replication

import (
	"testing"

	"repro/internal/expectation"
	"repro/internal/rng"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Groups: 0, LambdaGroup: 1},
		{Groups: 2, LambdaGroup: 0},
		{Groups: 2, LambdaGroup: -1},
		{Groups: 2, LambdaGroup: 1, Downtime: -1},
		{Groups: 2, LambdaGroup: 1, Recovery: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := Config{Groups: 2, LambdaGroup: 0.1, Downtime: 1, Recovery: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestSingleGroupMatchesProposition1(t *testing.T) {
	// With g = 1, replication degenerates to the core model: the
	// simulated mean must match the Prop. 1 closed form.
	c := Config{Groups: 1, LambdaGroup: 0.08, Downtime: 0.5, Recovery: 1}
	m, err := expectation.NewModel(0.08, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := m.ExpectedTime(10, 1, 1)
	res, err := c.Simulate(10, 1, 120000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Makespan.Contains(want, 0.999) {
		t.Errorf("simulated %v ± %v vs Prop.1 %v",
			res.Makespan.Mean(), res.Makespan.CI(0.999), want)
	}
}

func TestReplicationReducesAttempts(t *testing.T) {
	// At fixed per-group rate, more groups → fewer expected attempts and
	// shorter makespans in failure-dominated regimes.
	base := Config{Groups: 1, LambdaGroup: 0.2, Downtime: 0.5, Recovery: 1}
	tripled := Config{Groups: 3, LambdaGroup: 0.2, Downtime: 0.5, Recovery: 1}
	r1, err := base.Simulate(15, 1, 40000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := tripled.Simulate(15, 1, 40000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Attempts.Mean() >= r1.Attempts.Mean() {
		t.Errorf("3 groups should need fewer attempts: %v vs %v", r3.Attempts.Mean(), r1.Attempts.Mean())
	}
	if r3.Makespan.Mean() >= r1.Makespan.Mean() {
		t.Errorf("3 groups should finish sooner: %v vs %v", r3.Makespan.Mean(), r1.Makespan.Mean())
	}
}

func TestSimulateValidation(t *testing.T) {
	c := Config{Groups: 1, LambdaGroup: 0.1}
	if _, err := c.Simulate(1, 0, 0, rng.New(1)); err == nil {
		t.Error("zero runs should fail")
	}
	bad := Config{Groups: 0, LambdaGroup: 0.1}
	if _, err := bad.Simulate(1, 0, 10, rng.New(1)); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestBreakEvenGroups(t *testing.T) {
	// Perfectly parallel work: splitting the pool into g groups
	// multiplies per-attempt work by g. At a high failure rate the
	// resilience of replication can still win; at a negligible rate it
	// cannot (g = 1 is optimal).
	workAt := func(g int) float64 { return 10 * float64(g) }
	bestSafe, times, err := BreakEvenGroups(4, 1e-6, 0.5, 1, 0.5, workAt, 4000, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if bestSafe != 1 {
		t.Errorf("with negligible failures best g = %d, want 1 (times %v)", bestSafe, times)
	}
	if len(times) != 4 {
		t.Fatalf("times = %v", times)
	}
	// Failure-dominated: λ_total·L = 8: a single group needs e^8 ≈ 3000
	// attempts; replication must help.
	bestRisky, timesRisky, err := BreakEvenGroups(4, 0.8, 0.5, 1, 0.5, workAt, 4000, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if bestRisky == 1 {
		t.Errorf("under heavy failures best g = 1 is implausible (times %v)", timesRisky)
	}
	if _, _, err := BreakEvenGroups(0, 0.1, 0, 0, 0, workAt, 10, rng.New(7)); err == nil {
		t.Error("maxGroups = 0 should fail")
	}
}
