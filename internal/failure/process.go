package failure

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// RejuvenationPolicy states which processors get a fresh failure clock
// after a platform failure. For Exponential laws the policy is irrelevant
// (memorylessness), but for Weibull/log-normal laws it changes the platform
// process substantially — the distinction at the heart of the paper's
// critique of Bouguerra et al. [12] (which implicitly rejuvenates all
// processors at every failure and checkpoint).
type RejuvenationPolicy int

const (
	// RejuvenateFailedOnly resets only the failed processor's clock: the
	// realistic model (only the failed node is rebooted/replaced).
	RejuvenateFailedOnly RejuvenationPolicy = iota
	// RejuvenateAll resets every processor's clock at each failure: the
	// (unrealistic) assumption under which periodic checkpointing is
	// provably optimal for Weibull laws.
	RejuvenateAll
)

// String implements fmt.Stringer.
func (p RejuvenationPolicy) String() string {
	switch p {
	case RejuvenateFailedOnly:
		return "failed-only"
	case RejuvenateAll:
		return "all"
	default:
		return fmt.Sprintf("RejuvenationPolicy(%d)", int(p))
	}
}

// Process generates the platform-level failure sequence seen by a
// fully-parallel application: the superposition of the per-processor
// processes. It is consumed by the simulator.
type Process interface {
	// NextFailure returns the delay from now until the next platform
	// failure, assuming the platform runs (computing or recovering —
	// clocks advance identically) for that whole span.
	NextFailure() float64
	// ObserveFailure informs the process that the failure it announced
	// occurred and was handled (downtime served). Clocks of non-failed
	// processors have advanced by delay; the failed processor restarts.
	ObserveFailure()
	// Advance informs the process that dt time units elapsed without the
	// announced failure being reached (e.g. the segment finished first).
	Advance(dt float64)
	// Rate returns the nominal platform failure rate if defined (the
	// Exponential λ = p·λproc), or 0 when no constant rate exists.
	Rate() float64
}

// Resettable is implemented by processes that can re-initialize
// themselves for a fresh, independent run, drawing any new randomness
// from their original stream. A Reset consumes exactly the random
// variates the corresponding constructor would, so a Monte-Carlo
// campaign that resets one process per run is sample-for-sample
// identical to one constructing a fresh process per run — while
// allocating nothing in its steady state (see sim.MonteCarlo).
type Resettable interface {
	Reset()
}

// ExponentialProcess is the memoryless platform process of the core model:
// platform failures are Exp(λ) with λ = p·λproc.
type ExponentialProcess struct {
	lambda float64
	r      *rng.Stream
	next   float64
}

// NewExponentialProcess returns a platform process of rate lambda.
func NewExponentialProcess(lambda float64, r *rng.Stream) *ExponentialProcess {
	p := &ExponentialProcess{lambda: lambda, r: r}
	p.next = p.draw()
	return p
}

func (p *ExponentialProcess) draw() float64 { return p.r.ExpFloat64() / p.lambda }

// NextFailure returns the delay until the next failure.
func (p *ExponentialProcess) NextFailure() float64 { return p.next }

// ObserveFailure redraws the failure clock.
func (p *ExponentialProcess) ObserveFailure() { p.next = p.draw() }

// Advance consumes dt units of the current clock. Thanks to memorylessness
// the residual is still exponential, so consuming or redrawing are
// equivalent; we consume to keep the announced failure time consistent.
func (p *ExponentialProcess) Advance(dt float64) {
	p.next -= dt
	if p.next <= 0 {
		p.next = p.draw()
	}
}

// Rate returns λ.
func (p *ExponentialProcess) Rate() float64 { return p.lambda }

// Reset redraws the failure clock, exactly as construction does.
func (p *ExponentialProcess) Reset() { p.next = p.draw() }

// ScanProcess is the linear-scan reference implementation of the
// superposed platform process: it tracks each processor's
// time-to-next-failure in a flat slice and scans all p entries on every
// NextFailure/Advance/ObserveFailure. It is exact for non-memoryless laws
// but O(p) per event, which makes large-platform Monte-Carlo campaigns
// effectively quadratic in platform size. SuperposedProcess (the
// production implementation) replaces the scans with an indexed min-heap
// over absolute failure times; ScanProcess is kept as the semantic
// reference the heap is pinned against — the sample-identity tests in
// identity_test.go assert the two draw the same variates in the same
// order — and as the "before" arm of E14 and cmd/benchtraj.
type ScanProcess struct {
	dist   Distribution
	policy RejuvenationPolicy
	r      *rng.Stream
	remain []float64 // per-processor time until its next failure
}

// NewScanProcess creates a platform of n processors whose individual
// inter-failure times follow dist, using the O(p)-per-event scan
// representation.
func NewScanProcess(dist Distribution, n int, policy RejuvenationPolicy, r *rng.Stream) (*ScanProcess, error) {
	if n <= 0 {
		return nil, fmt.Errorf("failure: processor count must be positive, got %d", n)
	}
	sp := &ScanProcess{dist: dist, policy: policy, r: r, remain: make([]float64, n)}
	for i := range sp.remain {
		sp.remain[i] = dist.Sample(r)
	}
	return sp, nil
}

func (sp *ScanProcess) minIdx() (int, float64) {
	best, bestV := 0, sp.remain[0]
	for i, v := range sp.remain[1:] {
		if v < bestV {
			best, bestV = i+1, v
		}
	}
	return best, bestV
}

// NextFailure returns the minimum residual clock over processors.
func (sp *ScanProcess) NextFailure() float64 {
	_, v := sp.minIdx()
	return v
}

// ObserveFailure advances every clock to the failure instant, then
// rejuvenates according to the policy.
func (sp *ScanProcess) ObserveFailure() {
	idx, v := sp.minIdx()
	for i := range sp.remain {
		sp.remain[i] -= v
	}
	switch sp.policy {
	case RejuvenateAll:
		for i := range sp.remain {
			sp.remain[i] = sp.dist.Sample(sp.r)
		}
	default:
		sp.remain[idx] = sp.dist.Sample(sp.r)
		// Other processors keep their aged clocks; any that would have
		// failed at the same instant fail next with zero delay, which the
		// simulator handles as an immediate subsequent failure.
		for i := range sp.remain {
			if i != idx && sp.remain[i] <= 0 {
				sp.remain[i] = 0
			}
		}
	}
}

// Advance ages every processor clock by dt.
func (sp *ScanProcess) Advance(dt float64) {
	for i := range sp.remain {
		sp.remain[i] -= dt
		if sp.remain[i] < 0 {
			sp.remain[i] = 0
		}
	}
}

// Rate returns p·λ for Exponential component laws and 0 otherwise.
func (sp *ScanProcess) Rate() float64 {
	if e, ok := sp.dist.(Exponential); ok {
		return e.Lambda * float64(len(sp.remain))
	}
	return 0
}

// Reset resamples every processor clock, exactly as construction does.
func (sp *ScanProcess) Reset() {
	for i := range sp.remain {
		sp.remain[i] = sp.dist.Sample(sp.r)
	}
}

// TraceProcess replays a fixed sequence of platform failure inter-arrival
// times, cycling if exhausted. It adapts recorded traces (internal/trace)
// to the Process interface.
type TraceProcess struct {
	gaps []float64
	pos  int
	next float64
}

// NewTraceProcess replays gaps as successive inter-failure delays.
func NewTraceProcess(gaps []float64) (*TraceProcess, error) {
	if len(gaps) == 0 {
		return nil, fmt.Errorf("failure: empty trace")
	}
	for i, g := range gaps {
		if g < 0 || math.IsNaN(g) {
			return nil, fmt.Errorf("failure: trace gap %d is invalid (%v)", i, g)
		}
	}
	t := &TraceProcess{gaps: gaps}
	t.next = t.gaps[0]
	return t, nil
}

// NextFailure returns the remaining delay of the current gap.
func (t *TraceProcess) NextFailure() float64 { return t.next }

// ObserveFailure moves to the next recorded gap.
func (t *TraceProcess) ObserveFailure() {
	t.pos = (t.pos + 1) % len(t.gaps)
	t.next = t.gaps[t.pos]
}

// Advance consumes dt from the current gap.
func (t *TraceProcess) Advance(dt float64) {
	t.next -= dt
	if t.next < 0 {
		t.next = 0
	}
}

// Rate returns 0: a trace has no constant rate.
func (t *TraceProcess) Rate() float64 { return 0 }

// Reset rewinds the trace to its first gap.
func (t *TraceProcess) Reset() {
	t.pos = 0
	t.next = t.gaps[0]
}

var (
	_ Process    = (*ExponentialProcess)(nil)
	_ Process    = (*ScanProcess)(nil)
	_ Process    = (*TraceProcess)(nil)
	_ Resettable = (*ExponentialProcess)(nil)
	_ Resettable = (*ScanProcess)(nil)
	_ Resettable = (*TraceProcess)(nil)
)
