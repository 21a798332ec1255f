package failure

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// SuperposedProcess superposes p independent per-processor distributions:
// the platform fails when any processor fails. It tracks each processor's
// time-to-next-failure, so it is exact for non-memoryless laws.
//
// Representation: an indexed min-heap over *absolute* failure times plus a
// global clock offset. Advancing the platform adds to the offset instead
// of aging p clocks. Clocks drawn by Reset or a rejuvenate-all failure
// start *lazy*: only the law's cheap base draw (see splitLaw) is made and
// stored, and the transform to a failure time runs when the processor is
// materialized into the heap. The draw tracks the lazyK smallest bases,
// so the few processors a simulation actually reads come out in O(1)
// each. The per-event costs are
//
//	NextFailure    O(1)   amortized (peek the heap root, materializing
//	                        lazy clocks that might precede it)
//	Advance        O(1)   (bump the clock offset)
//	ObserveFailure O(log p) under RejuvenateFailedOnly (fix one heap entry)
//	               O(p)     under RejuvenateAll (p base draws)
//	Reset          O(p)     (p base draws, no transform, no heapify)
//
// versus O(p) for every operation of the ScanProcess reference. The
// variate draw order is identical to ScanProcess — clocks are sampled in
// processor-index order at construction/Reset/RejuvenateAll, the failed
// processor is the unique heap minimum with ties broken toward the lowest
// processor index (matching the scan's first-strict-minimum selection),
// and only the failed processor redraws under RejuvenateFailedOnly — so a
// campaign on either implementation consumes the same stream variates in
// the same order (pinned by identity_test.go).
//
// Materialization rule: a lazy processor with base b has the failure time
// fl(T(b)) the eager Sample would have stored. The heap root is final once
// fl(T(m))·(1 − lazyMargin) > abs[root] holds strictly, where m is a lower
// bound on every lazy base; otherwise the lazy processor with the smallest
// (base, index) is materialized and the test repeats. The check is sound
// because T is non-decreasing and each law's fl(T) has relative error
// δ ≲ 1e-13 (b/λ is correctly rounded; Scale·Pow and exp(μ+σb) are off by
// at most |log|·2⁻⁵³ ≤ 709·2⁻⁵³ plus a few ulps): for any lazy b ≥ m,
// fl(T(b)) ≥ T(m)(1−δ) ≥ fl(T(m))(1−2δ) > fl(T(m))(1−lazyMargin)(1+2⁻⁵³),
// so every lazy failure time is strictly later than the root's. Ties and
// near-ties are therefore always materialized, and the (abs, index)
// tie-break is decided on exactly the floats the eager heap compared. A
// NaN, infinite, subnormal or non-positive bound is outside that error
// model and always means "materialize".
//
// Determinism note: for p == 1 the clock offset stays zero and Advance
// subtracts from the single remaining time directly, reproducing the scan
// arithmetic bit-for-bit (this is the configuration E11's fingerprinted
// tables simulate). For p > 1 remaining times are computed as
// absolute − clock, which is mathematically identical but may differ from
// the scan's repeated subtraction in the last ulp; the variate sequence is
// still identical whenever both implementations see the same call
// schedule.
type SuperposedProcess struct {
	dist   Distribution
	law    splitLaw
	policy RejuvenationPolicy
	r      *rng.Stream
	clock  float64   // process time elapsed since the last rebase
	abs    []float64 // absolute failure time per materialized processor (remaining when p == 1)
	heap   []int32   // (abs, index) min-heap over materialized processors; unused when p == 1

	// Lazy clocks, p > 1 only: processors drawn at the last rebase and not
	// yet materialized.
	base    []float64        // base draw per processor at the last rebase
	low     [lazyK]lazyClock // the smallest (base, index) pairs of that draw, ascending
	nlow    int              // filled entries of low
	next    int              // next entry of low to materialize
	rest    []int32          // (base, index) min-heap over the lazy processors outside low, built once low runs dry
	pending int              // lazy processors
	bound   float64          // fl(T(m))·(1 − lazyMargin) for m ≤ every lazy base, or NaN
}

const (
	// lazyK is how many of the smallest bases a draw tracks; a
	// replication that reads more clocks than this builds a base heap
	// over the rest.
	lazyK = 8
	// lazyMargin is the relative slack of the materialization bound; see
	// SuperposedProcess.
	lazyMargin = 1e-9
)

// lazyClock is one tracked (base, processor index) pair.
type lazyClock struct {
	b float64
	i int32
}

// NewSuperposedProcess creates a platform of n processors whose individual
// inter-failure times follow dist.
func NewSuperposedProcess(dist Distribution, n int, policy RejuvenationPolicy, r *rng.Stream) (*SuperposedProcess, error) {
	if n <= 0 {
		return nil, fmt.Errorf("failure: processor count must be positive, got %d", n)
	}
	sp := &SuperposedProcess{dist: dist, law: splitOf(dist), policy: policy, r: r, abs: make([]float64, n)}
	if n > 1 {
		sp.heap = make([]int32, 0, n)
		sp.base = make([]float64, n)
		sp.rest = make([]int32, 0, n)
	}
	sp.Reset()
	return sp, nil
}

// less orders heap entries by (key, processor index). The index tie-break
// reproduces the scan reference's lowest-index selection among
// simultaneous failures, which keeps the variate draw order identical
// under ties (e.g. the pinned-at-zero processors of the failed-only
// policy).
func less(key []float64, a, b int32) bool {
	return key[a] < key[b] || (key[a] == key[b] && a < b)
}

// heapify rebuilds h into a min-heap (Floyd's O(len) construction).
func heapify(h []int32, key []float64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, key, i)
	}
}

// siftDown restores the heap property below slot i.
func siftDown(h []int32, key []float64, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && less(key, h[r], h[l]) {
			small = r
		}
		if !less(key, h[small], h[i]) {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// siftUp restores the heap property above slot i.
func siftUp(h []int32, key []float64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(key, h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// drawAll redraws every processor's base in index order and rebases the
// clock offset to zero; every processor becomes lazy.
func (sp *SuperposedProcess) drawAll() {
	sp.clock = 0
	sp.heap = sp.heap[:0]
	sp.rest = sp.rest[:0]
	sp.nlow, sp.next = 0, 0
	for i := range sp.base {
		b := sp.law.base(sp.r)
		sp.base[i] = b
		// Indices arrive in increasing order, so a strict comparison
		// keeps equal bases in index order.
		if sp.nlow == lazyK {
			if !(b < sp.low[lazyK-1].b) {
				continue
			}
			sp.nlow--
		}
		j := sp.nlow
		for ; j > 0 && sp.low[j-1].b > b; j-- {
			sp.low[j] = sp.low[j-1]
		}
		sp.low[j] = lazyClock{b, int32(i)}
		sp.nlow++
	}
	// bound is first read after the first materialization, which the
	// empty heap forces.
	sp.pending = len(sp.base)
}

// boundOf returns fl(T(m))·(1 − lazyMargin), or NaN when that falls
// outside the error model of the materialization rule.
func (sp *SuperposedProcess) boundOf(m float64) float64 {
	b := sp.law.transform(m) * (1 - lazyMargin)
	if b >= 0x1p-1022 && b <= math.MaxFloat64 {
		return b
	}
	return math.NaN()
}

// settle materializes lazy processors until none can precede or tie the
// heap root.
func (sp *SuperposedProcess) settle() {
	for sp.pending > 0 && !(len(sp.heap) > 0 && sp.bound > sp.abs[sp.heap[0]]) {
		sp.materialize()
	}
}

// materialize moves the lazy processor with the smallest (base, index)
// into the heap and re-bounds the ones still lazy.
func (sp *SuperposedProcess) materialize() {
	var i int32
	if sp.next < sp.nlow {
		i = sp.low[sp.next].i
		sp.next++
		// Once low runs dry, its last base bounds every processor
		// outside it.
		sp.bound = sp.boundOf(sp.low[min(sp.next, sp.nlow-1)].b)
	} else {
		if len(sp.rest) == 0 {
			sp.buildRest()
		}
		i = sp.rest[0]
		last := len(sp.rest) - 1
		sp.rest[0] = sp.rest[last]
		sp.rest = sp.rest[:last]
		siftDown(sp.rest, sp.base, 0)
		if last > 0 {
			sp.bound = sp.boundOf(sp.base[sp.rest[0]])
		}
	}
	sp.pending--
	sp.abs[i] = sp.law.transform(sp.base[i])
	sp.heap = append(sp.heap, i)
	siftUp(sp.heap, sp.abs, len(sp.heap)-1)
}

// buildRest heapifies the lazy processors outside low, by (base, index).
func (sp *SuperposedProcess) buildRest() {
	var skip [lazyK]int32
	for k, c := range sp.low[:sp.nlow] {
		skip[k] = c.i
	}
	slices.Sort(skip[:sp.nlow])
	k := 0
	for i := range sp.base {
		if k < sp.nlow && skip[k] == int32(i) {
			k++
			continue
		}
		sp.rest = append(sp.rest, int32(i))
	}
	heapify(sp.rest, sp.base)
}

// NextFailure returns the minimum residual clock over processors: the heap
// root's absolute time minus the clock offset.
func (sp *SuperposedProcess) NextFailure() float64 {
	if len(sp.abs) == 1 {
		return sp.abs[0]
	}
	sp.settle()
	return sp.abs[sp.heap[0]] - sp.clock
}

// ObserveFailure advances the platform to the failure instant, then
// rejuvenates according to the policy: O(log p) for failed-only (one heap
// fix-up), O(p) for rejuvenate-all (every clock is redrawn, whichever
// processor failed).
func (sp *SuperposedProcess) ObserveFailure() {
	if len(sp.abs) == 1 {
		sp.abs[0] = sp.dist.Sample(sp.r)
		return
	}
	if sp.policy == RejuvenateAll {
		sp.drawAll()
		return
	}
	sp.settle()
	top := sp.heap[0]
	if t := sp.abs[top]; t > sp.clock {
		// Setting clock = abs[top] (rather than adding the residual) keeps
		// processors tied at the failure instant at exactly zero remaining
		// time, matching the scan's x − x = 0 pinning.
		sp.clock = t
	}
	sp.abs[top] = sp.clock + sp.dist.Sample(sp.r)
	siftDown(sp.heap, sp.abs, 0)
}

// Advance ages the whole platform by dt in O(1), by bumping the clock
// offset. Per the Process contract dt never exceeds the announced
// NextFailure, so no clock can be pushed past its failure time.
func (sp *SuperposedProcess) Advance(dt float64) {
	if len(sp.abs) == 1 {
		// Single processor: subtract directly so the arithmetic matches
		// the scan reference bit-for-bit (the clock offset stays zero).
		sp.abs[0] -= dt
		if sp.abs[0] < 0 {
			sp.abs[0] = 0
		}
		return
	}
	sp.clock += dt
}

// Rate returns p·λ for Exponential component laws and 0 otherwise.
func (sp *SuperposedProcess) Rate() float64 {
	if e, ok := sp.dist.(Exponential); ok {
		return e.Lambda * float64(len(sp.abs))
	}
	return 0
}

// Reset resamples every processor clock in index order, exactly as
// construction does, and rebases the clock offset to zero.
func (sp *SuperposedProcess) Reset() {
	if len(sp.abs) == 1 {
		sp.abs[0] = sp.dist.Sample(sp.r)
		return
	}
	sp.drawAll()
}

var (
	_ Process    = (*SuperposedProcess)(nil)
	_ Resettable = (*SuperposedProcess)(nil)
)
