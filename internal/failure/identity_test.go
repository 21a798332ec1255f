package failure

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// recordingDist wraps a Distribution and logs every sample drawn, so the
// identity tests can compare the exact variate sequences two process
// implementations consume.
type recordingDist struct {
	Distribution
	log *[]float64
}

func (d recordingDist) Sample(r *rng.Stream) float64 {
	x := d.Distribution.Sample(r)
	*d.log = append(*d.log, x)
	return x
}

// identityLaws returns the three laws of the paper's extension, MTBF ≈ 25.
func identityLaws(t *testing.T) map[string]Distribution {
	t.Helper()
	weib, err := NewWeibull(0.7, 25/math.Gamma(1+1/0.7))
	if err != nil {
		t.Fatal(err)
	}
	logn, err := NewLogNormal(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExponential(1.0 / 25)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Distribution{"exponential": exp, "weibull": weib, "lognormal": logn}
}

// TestHeapMatchesScanSampleIdentity pins the tentpole contract: the
// heap-based SuperposedProcess consumes the same stream variates in the
// same order as the ScanProcess reference, under every law × rejuvenation
// policy × platform size, over a randomized schedule of
// NextFailure/Advance/ObserveFailure/Reset calls. NextFailure values must
// agree bit-for-bit at p = 1 (the fingerprinted E11 configuration) and to
// ulp accuracy beyond.
func TestHeapMatchesScanSampleIdentity(t *testing.T) {
	for name, dist := range identityLaws(t) {
		for _, policy := range []RejuvenationPolicy{RejuvenateFailedOnly, RejuvenateAll} {
			for _, procs := range []int{1, 2, 3, 7, 64} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", name, policy, procs), func(t *testing.T) {
					const seed = 12345
					var scanLog, heapLog []float64
					scan, err := NewScanProcess(recordingDist{dist, &scanLog}, procs, policy, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					heap, err := NewSuperposedProcess(recordingDist{dist, &heapLog}, procs, policy, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					sched := rng.New(999)
					for step := 0; step < 4000; step++ {
						vs, vh := scan.NextFailure(), heap.NextFailure()
						if procs == 1 {
							if vs != vh {
								t.Fatalf("step %d: NextFailure %v (scan) != %v (heap) at p=1 (must be bit-exact)", step, vs, vh)
							}
						} else if !ulpClose(vs, vh) {
							t.Fatalf("step %d: NextFailure %v (scan) vs %v (heap) beyond ulp tolerance", step, vs, vh)
						}
						switch u := sched.Float64(); {
						case u < 0.45:
							scan.ObserveFailure()
							heap.ObserveFailure()
						case u < 0.9:
							// Advance some fraction of the announced gap;
							// each implementation consumes its own value so
							// the p=1 arithmetic stays bit-identical.
							f := sched.Float64()
							scan.Advance(f * vs)
							heap.Advance(f * vh)
						default:
							scan.Reset()
							heap.Reset()
						}
						if len(scanLog) != len(heapLog) {
							t.Fatalf("step %d: %d variates drawn by scan, %d by heap", step, len(scanLog), len(heapLog))
						}
						for i := range scanLog {
							if scanLog[i] != heapLog[i] {
								t.Fatalf("step %d: variate %d is %v (scan) vs %v (heap)", step, i, scanLog[i], heapLog[i])
							}
						}
						agesScan, agesHeap := scan.Ages(), heap.Ages()
						for i := range agesScan {
							if !ulpClose(agesScan[i], agesHeap[i]) {
								t.Fatalf("step %d: proc %d age %v (scan) vs %v (heap)", step, i, agesScan[i], agesHeap[i])
							}
						}
					}
					if len(scanLog) < 1000 {
						t.Fatalf("schedule only drew %d variates; test lost its teeth", len(scanLog))
					}
				})
			}
		}
	}
}

// ulpClose reports near-equality up to accumulated last-ulp differences
// between the scan's repeated-subtraction arithmetic and the heap's
// absolute-time representation.
func ulpClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale+1e-12
}

// TestHeapMatchesScanSimultaneousFailures drives both implementations
// through deterministic simultaneous failures: every processor fails at
// the same instant, the lowest index must be selected as the failed one,
// and the remaining processors stay pinned at zero (failed-only) or all
// rejuvenate (all). Deterministic gaps make every comparison exact.
func TestHeapMatchesScanSimultaneousFailures(t *testing.T) {
	for _, policy := range []RejuvenationPolicy{RejuvenateFailedOnly, RejuvenateAll} {
		t.Run(policy.String(), func(t *testing.T) {
			const procs = 5
			var scanLog, heapLog []float64
			dist := Deterministic{Value: 8}
			scan, err := NewScanProcess(recordingDist{dist, &scanLog}, procs, policy, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			heap, err := NewSuperposedProcess(recordingDist{dist, &heapLog}, procs, policy, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			// All five processors fail simultaneously at t = 8; observing
			// failures one by one must retire them in index order, each
			// with an exactly-zero gap after the first.
			for round := 0; round < 3; round++ {
				if got := scan.NextFailure(); got != 8 {
					t.Fatalf("round %d: scan first gap %v, want 8", round, got)
				}
				if got := heap.NextFailure(); got != 8 {
					t.Fatalf("round %d: heap first gap %v, want 8", round, got)
				}
				scan.Advance(3)
				heap.Advance(3)
				scan.ObserveFailure()
				heap.ObserveFailure()
				if policy == RejuvenateAll {
					// Everyone is fresh again; nothing left pinned.
					for i, a := range heap.Ages() {
						if a != 8 {
							t.Fatalf("round %d: rejuvenate-all heap age[%d] = %v, want 8", round, i, a)
						}
					}
				} else {
					// The remaining four are pinned at exactly zero and
					// must be observed in index order with zero gaps.
					for k := 0; k < procs-1; k++ {
						if got := scan.NextFailure(); got != 0 {
							t.Fatalf("round %d: scan pinned gap %v, want 0", round, got)
						}
						if got := heap.NextFailure(); got != 0 {
							t.Fatalf("round %d: heap pinned gap %v, want 0", round, got)
						}
						scan.ObserveFailure()
						heap.ObserveFailure()
						for i := range scanLog {
							if scanLog[i] != heapLog[i] {
								t.Fatalf("variate %d diverged: %v vs %v", i, scanLog[i], heapLog[i])
							}
						}
					}
				}
				for i := range heap.Ages() {
					if heap.Ages()[i] != scan.Ages()[i] {
						t.Fatalf("round %d: ages diverged: %v vs %v", round, scan.Ages(), heap.Ages())
					}
				}
			}
			if len(scanLog) != len(heapLog) {
				t.Fatalf("draw counts diverged: %d vs %d", len(scanLog), len(heapLog))
			}
		})
	}
}

// TestRecordedTraceReplaysSharedEnvironment pins the CRN contract: two
// cursors over one recording observe bit-identical gap sequences, and
// extending the recording through one cursor is visible to the other.
func TestRecordedTraceReplaysSharedEnvironment(t *testing.T) {
	e, err := NewExponential(0.1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSuperposedProcess(e, 4, RejuvenateFailedOnly, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewRecordedTrace(src)
	a := tr.Cursor()
	var gapsA []float64
	for i := 0; i < 50; i++ {
		gapsA = append(gapsA, a.NextFailure())
		a.ObserveFailure()
	}
	if tr.Recorded() < 50 {
		t.Fatalf("recorded %d gaps, want ≥ 50", tr.Recorded())
	}
	b := tr.Cursor()
	for i := 0; i < 50; i++ {
		if got := b.NextFailure(); got != gapsA[i] {
			t.Fatalf("gap %d: second cursor saw %v, first %v", i, got, gapsA[i])
		}
		b.ObserveFailure()
	}
	// Partial consumption replays like a live process.
	b.Reset()
	first := b.NextFailure()
	b.Advance(first / 2)
	if got := b.NextFailure(); math.Abs(got-first/2) > 1e-12 {
		t.Fatalf("after advance: %v, want %v", got, first/2)
	}
	// Reset starts a fresh replication: a new recording, new gaps.
	tr.Reset()
	if tr.Recorded() != 0 {
		t.Fatalf("reset kept %d gaps", tr.Recorded())
	}
	c := tr.Cursor()
	same := 0
	for i := 0; i < 50; i++ {
		if c.NextFailure() == gapsA[i] {
			same++
		}
		c.ObserveFailure()
	}
	if same > 2 {
		t.Fatalf("fresh replication repeated %d/50 gaps of the previous one", same)
	}
}

// Recorded returns the number of gaps materialized so far.
func (t *RecordedTrace) Recorded() int { return len(t.gaps) }
