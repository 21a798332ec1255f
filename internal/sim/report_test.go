package sim

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestReport(t *testing.T) {
	cp := testChain(t, 8, 0.06, 0.4)
	res, err := core.SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Report(cp, res.CheckpointAfter)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Expected-res.Expected) > 1e-9*res.Expected {
		t.Errorf("report expected %v ≠ DP %v", rep.Expected, res.Expected)
	}
	if rep.Checkpoints != len(res.Positions()) {
		t.Errorf("checkpoints %d ≠ %d", rep.Checkpoints, len(res.Positions()))
	}
	if rep.FailureFree <= 0 || rep.Expected < rep.FailureFree {
		t.Errorf("failure-free %v vs expected %v inconsistent", rep.FailureFree, rep.Expected)
	}
	if rep.ExpectedWaste <= 0 {
		t.Errorf("waste %v must be positive under failures", rep.ExpectedWaste)
	}
	if rep.StdDev <= 0 {
		t.Errorf("stddev %v must be positive", rep.StdDev)
	}
	if len(rep.Segments) != rep.Checkpoints {
		t.Errorf("segments %d ≠ checkpoints %d", len(rep.Segments), rep.Checkpoints)
	}
	// Consistency with the analytic variance.
	v, err := cp.MakespanVariance(res.CheckpointAfter)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.StdDev*rep.StdDev-v) > 1e-9*v {
		t.Errorf("stddev² %v ≠ variance %v", rep.StdDev*rep.StdDev, v)
	}
}

func TestReportBadVector(t *testing.T) {
	cp := testChain(t, 4, 0.05, 0)
	if _, err := Report(cp, []bool{true}); err == nil {
		t.Error("wrong-length vector should fail")
	}
}
