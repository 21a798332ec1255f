package failure

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// steppedLaw has a stepped transform, so distinct bases share failure
// times and the (abs, index) tie-break decides which processor fails.
type steppedLaw struct{ Exponential }

func (s steppedLaw) Sample(r *rng.Stream) float64 { return s.transform(s.base(r)) }

func (steppedLaw) base(r *rng.Stream) float64 { return r.ExpFloat64() }

func (steppedLaw) transform(b float64) float64 { return (math.Floor(4*b) + 1) / 4 }

func (steppedLaw) monotone() bool { return true }

func (steppedLaw) String() string { return "stepped" }

// splitLaws returns the laws whose base/transform split the lazy clocks
// use: the paper's three, MTBF ≈ 25, and the stepped test law.
func splitLaws(t *testing.T) map[string]Distribution {
	t.Helper()
	laws := map[string]Distribution{"stepped": steppedLaw{}}
	for name, d := range identityLaws(t) {
		laws[name] = d
	}
	return laws
}

// lazyTrio drives one call schedule through the scan reference, a heap
// that sees the law through recordingDist (identity split) and a heap that
// sees the bare law (its own split). The scan and the wrapped heap log
// their variates; the bare heap's draws are checked through its stream.
type lazyTrio struct {
	t                      testing.TB
	procs                  int
	scan                   *ScanProcess
	wrapped, bare          *SuperposedProcess
	scanR, wrappedR, bareR *rng.Stream
	scanLog, wrappedLog    []float64
	observed, resets       int
}

func newLazyTrio(t testing.TB, dist Distribution, procs int, policy RejuvenationPolicy, seed uint64) *lazyTrio {
	t.Helper()
	tr := &lazyTrio{t: t, procs: procs, scanR: rng.New(seed), wrappedR: rng.New(seed), bareR: rng.New(seed)}
	var err error
	if tr.scan, err = NewScanProcess(recordingDist{dist, &tr.scanLog}, procs, policy, tr.scanR); err != nil {
		t.Fatal(err)
	}
	if tr.wrapped, err = NewSuperposedProcess(recordingDist{dist, &tr.wrappedLog}, procs, policy, tr.wrappedR); err != nil {
		t.Fatal(err)
	}
	if tr.bare, err = NewSuperposedProcess(dist, procs, policy, tr.bareR); err != nil {
		t.Fatal(err)
	}
	return tr
}

// next checks the three announced failures agree, bit for bit between the
// heaps and to ulp accuracy (bit for bit at p = 1) against the scan, and
// returns the heaps' value.
func (tr *lazyTrio) next(step int) float64 {
	tr.t.Helper()
	vs, vw, vb := tr.scan.NextFailure(), tr.wrapped.NextFailure(), tr.bare.NextFailure()
	if math.Float64bits(vw) != math.Float64bits(vb) {
		tr.t.Fatalf("step %d: NextFailure %v (identity split) != %v (law's split)", step, vw, vb)
	}
	if tr.procs == 1 && vs != vb || !ulpClose(vs, vb) {
		tr.t.Fatalf("step %d: NextFailure %v (scan) vs %v (heap)", step, vs, vb)
	}
	return vb
}

func (tr *lazyTrio) observe() {
	tr.scan.ObserveFailure()
	tr.wrapped.ObserveFailure()
	tr.bare.ObserveFailure()
	tr.observed++
}

// advance ages all three by the fraction f of the heap's announced gap,
// rounded down to a multiple of 2⁻¹⁰: the stepped law's failure times are
// multiples of 1/4, so its clocks then stay exact in both
// representations and its ties are the same ties for the scan.
func (tr *lazyTrio) advance(f, gap float64) {
	dt := math.Floor(f*gap*1024) / 1024
	tr.scan.Advance(dt)
	tr.wrapped.Advance(dt)
	tr.bare.Advance(dt)
}

// reset resets all three and checks their streams stand at the same
// draw: one Uint64 from each must agree.
func (tr *lazyTrio) reset(step int) {
	tr.t.Helper()
	tr.scan.Reset()
	tr.wrapped.Reset()
	tr.bare.Reset()
	tr.resets++
	s, w, b := tr.scanR.Uint64(), tr.wrappedR.Uint64(), tr.bareR.Uint64()
	if s != w || s != b {
		tr.t.Fatalf("step %d: streams diverged after Reset: next Uint64 %x (scan) %x (identity split) %x (law's split)", step, s, w, b)
	}
}

// agree checks the variate logs and every clock; Ages materializes every
// lazy clock, so callers use it sparingly.
func (tr *lazyTrio) agree(step int) {
	tr.t.Helper()
	if len(tr.scanLog) != len(tr.wrappedLog) {
		tr.t.Fatalf("step %d: %d variates drawn by scan, %d by heap", step, len(tr.scanLog), len(tr.wrappedLog))
	}
	for i := range tr.scanLog {
		if tr.scanLog[i] != tr.wrappedLog[i] {
			tr.t.Fatalf("step %d: variate %d is %v (scan) vs %v (heap)", step, i, tr.scanLog[i], tr.wrappedLog[i])
		}
	}
	as, aw, ab := tr.scan.Ages(), tr.wrapped.Ages(), tr.bare.Ages()
	for i := range as {
		if math.Float64bits(aw[i]) != math.Float64bits(ab[i]) || !ulpClose(as[i], ab[i]) {
			tr.t.Fatalf("step %d: proc %d age %v (scan) %v (identity split) %v (law's split)", step, i, as[i], aw[i], ab[i])
		}
	}
	if s, b := tr.scanR.Uint64(), tr.bareR.Uint64(); s != b || tr.wrappedR.Uint64() != s {
		tr.t.Fatalf("step %d: streams diverged", step)
	}
}

// TestLazyClocksMatchScan pins the lazy order-statistic clocks against the
// scan reference on the laws' own base/transform splits, which
// TestHeapMatchesScanSampleIdentity's recordingDist hides. Each
// replication observes more than lazyK failures before it resets, so the
// tracked smallest bases run dry and the base heap over the rest is
// built; the stepped law forces equal failure times from distinct bases.
func TestLazyClocksMatchScan(t *testing.T) {
	for name, dist := range splitLaws(t) {
		for _, policy := range []RejuvenationPolicy{RejuvenateFailedOnly, RejuvenateAll} {
			for _, procs := range []int{2, lazyK, lazyK + 1, 1000} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", name, policy, procs), func(t *testing.T) {
					tr := newLazyTrio(t, dist, procs, policy, 2024)
					sched := rng.New(77)
					steps := 3000
					if procs == 1000 {
						steps = 600 // the scan is O(p) per event
					}
					for step := 0; step < steps; step++ {
						gap := tr.next(step)
						switch u := sched.Float64(); {
						case u < 0.6:
							tr.observe()
						case u < 0.95:
							tr.advance(sched.Float64(), gap)
						default:
							tr.reset(step)
						}
						if step%97 == 96 {
							tr.agree(step)
						}
					}
					tr.agree(steps)
					if tr.observed < 20*lazyK || tr.resets < 10 {
						t.Fatalf("schedule observed %d failures over %d resets; test lost its teeth", tr.observed, tr.resets)
					}
				})
			}
		}
	}
}

// TestSteppedLawTies checks the stepped law really produces the tied
// failure times the index tie-break has to decide.
func TestSteppedLawTies(t *testing.T) {
	sp, err := NewSuperposedProcess(steppedLaw{}, 64, RejuvenateFailedOnly, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for i := 0; i < 64; i++ {
		if sp.NextFailure() == 0 {
			zero++
		}
		sp.ObserveFailure()
	}
	if zero < 10 {
		t.Fatalf("only %d of 64 failures were simultaneous with the previous one", zero)
	}
}

// TestSuperposedSteadyStateAllocs pins the campaign hot loop on a
// 1000-processor Weibull platform: a replication that resets, reads,
// advances and observes past the tracked smallest bases allocates nothing.
func TestSuperposedSteadyStateAllocs(t *testing.T) {
	weib, err := NewWeibull(0.7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSuperposedProcess(weib, 1000, RejuvenateFailedOnly, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp.Reset()
		for k := 0; k < 3*lazyK; k++ {
			sp.Advance(sp.NextFailure() / 2)
			sp.ObserveFailure()
		}
	})
	if allocs != 0 {
		t.Errorf("Reset + NextFailure + Advance + ObserveFailure allocate %.1f objects/replication, want 0", allocs)
	}
}

// FuzzSuperposedMatchesScan drives the heap and the scan reference
// through one script of events on a small platform and checks they
// announce the same failures and end with the same clocks.
func FuzzSuperposedMatchesScan(f *testing.F) {
	f.Add(uint64(1), uint8(3), false, uint8(0), []byte{0, 1, 2, 0, 0, 3})
	f.Add(uint64(7), uint8(lazyK), true, uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 3, 0})
	f.Add(uint64(9), uint8(63), false, uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, procs uint8, all bool, law uint8, script []byte) {
		laws := splitLaws(t)
		names := []string{"exponential", "weibull", "lognormal", "stepped"}
		policy := RejuvenateFailedOnly
		if all {
			policy = RejuvenateAll
		}
		if len(script) > 512 {
			script = script[:512]
		}
		tr := newLazyTrio(t, laws[names[int(law)%len(names)]], 1+int(procs)%64, policy, seed)
		for step, op := range script {
			gap := tr.next(step)
			switch op % 4 {
			case 0, 1:
				tr.observe()
			case 2:
				tr.advance(float64(op)/256, gap)
			default:
				tr.reset(step)
			}
		}
		tr.next(len(script))
		tr.agree(len(script))
	})
}
