package stats

// Histogram is the Monte-Carlo pipeline's quantile sketch. It counts
// non-negative observations in log-spaced buckets of fixed relative
// width 2⁻¹⁰ and keeps the exact minimum and maximum. The bucket of x
// is math.Float64bits(x) >> 42: the exponent and the top 10 mantissa
// bits, which order non-negative floats as the floats themselves.
//
// Accuracy: Quantile(q) returns the midpoint of the bucket holding the
// ⌈q·n⌉-th smallest observation, clamped to the extremes. A bucket spans
// at most 2⁻¹⁰ of its lower bound, so the estimate is within 2⁻¹¹·x of
// that order statistic x (for normal floats; subnormal buckets are
// 2⁻¹⁰³² wide, and zero reads back exactly), and q = 0 and q = 1 are
// exact.
//
// Determinism: Merge adds integer counts and takes the extremes, which
// is exact, associative and commutative. A histogram is therefore a
// function of the multiset of observations alone: any grouping or order
// of adds and merges gives the same bits, serialized form included.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// Histogram counts observations per bucket. The zero value is an empty
// histogram ready for use; Quantile(0) and Quantile(1) are its extremes.
type Histogram struct {
	counts   map[uint32]uint64 // observations per occupied bucket
	n        uint64
	min, max float64
}

// bucketOf returns the bucket index of a non-negative x.
func bucketOf(x float64) uint32 { return uint32(math.Float64bits(x) >> 42) }

// infBucket is the bucket of +Inf. Every bucket Add can fill lies below
// it; +Inf, NaN and negative floats (sign bit set) fall at or above it.
var infBucket = bucketOf(math.Inf(1))

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Add counts one observation. Negative, NaN and infinite observations
// panic: a sketch that silently absorbed them would mask simulation
// bugs (−0 counts as negative, since its bits sort above every float).
func (h *Histogram) Add(x float64) {
	if math.Signbit(x) || !(x < math.Inf(1)) {
		panic(fmt.Sprintf("stats: histogram add of x=%v", x))
	}
	if h.counts == nil {
		h.counts = make(map[uint32]uint64)
	}
	h.counts[bucketOf(x)]++
	h.extend(x, x, 1)
}

// extend widens the extremes to [lo, hi] and adds n to the count.
func (h *Histogram) extend(lo, hi float64, n uint64) {
	if h.n == 0 || lo < h.min {
		h.min = lo
	}
	if h.n == 0 || hi > h.max {
		h.max = hi
	}
	h.n += n
}

// Merge folds other into h, as if every observation of other had been
// added to h. other is not modified.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[uint32]uint64, len(other.counts))
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.extend(other.min, other.max, other.n)
}

// sorted returns the occupied buckets in ascending order and their
// counts.
func (h *Histogram) sorted() ([]uint32, []uint64) {
	bucket := make([]uint32, 0, len(h.counts))
	for b := range h.counts {
		bucket = append(bucket, b)
	}
	slices.Sort(bucket)
	count := make([]uint64, len(bucket))
	for i, b := range bucket {
		count[i] = h.counts[b]
	}
	return bucket, count
}

// Quantile returns the q-quantile estimate (0 ≤ q ≤ 1): the midpoint of
// the bucket holding the ⌈q·n⌉-th observation (0 for bucket 0, which
// holds zero), clamped to the exact extremes. NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	bucket, count := h.sorted()
	for i, b := range bucket {
		if seen += count[i]; seen >= rank {
			mid := 0.0 // bucket 0 holds zero and the smallest subnormals
			if b > 0 {
				lo := math.Float64frombits(uint64(b) << 42)
				mid = lo + (math.Float64frombits(uint64(b+1)<<42)-lo)/2
			}
			return math.Min(math.Max(mid, h.min), h.max)
		}
	}
	return h.max
}

// histogramJSON is the serialized form: the occupied buckets in
// ascending order with their counts, and the exact extremes. JSON
// float64 round-trips exactly (shortest-form encoding), so a histogram
// survives serialization bit for bit.
type histogramJSON struct {
	N      uint64   `json:"n"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Bucket []uint32 `json:"bucket"`
	Count  []uint64 `json:"count"`
}

// MarshalJSON serializes the histogram in its canonical form.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	doc := histogramJSON{N: h.n}
	doc.Bucket, doc.Count = h.sorted()
	if h.n > 0 {
		doc.Min, doc.Max = &h.min, &h.max
	}
	return json.Marshal(doc)
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON. It
// refuses any document MarshalJSON could not have written: buckets out
// of order, repeated, empty or at +Inf's, counts that overflow or do
// not sum to n, and extremes absent or outside the first and last
// occupied bucket.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var doc histogramJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if len(doc.Bucket) != len(doc.Count) {
		return fmt.Errorf("stats: histogram has %d buckets but %d counts", len(doc.Bucket), len(doc.Count))
	}
	var total uint64
	for i, b := range doc.Bucket {
		c := doc.Count[i]
		switch {
		case i > 0 && b <= doc.Bucket[i-1]:
			return fmt.Errorf("stats: histogram bucket %d at position %d does not ascend", b, i)
		case b >= infBucket:
			return fmt.Errorf("stats: histogram bucket %d is not below +Inf's (%d)", b, infBucket)
		case c == 0:
			return fmt.Errorf("stats: histogram bucket %d has count 0", b)
		case total+c < total:
			return fmt.Errorf("stats: histogram counts overflow at bucket %d", b)
		}
		total += c
	}
	if total != doc.N {
		return fmt.Errorf("stats: histogram n=%d but its buckets count %d", doc.N, total)
	}
	if (doc.Min == nil) != (total == 0) || (doc.Max == nil) != (total == 0) {
		return fmt.Errorf("stats: histogram of %d observations must carry both extremes exactly when n > 0", total)
	}
	if total == 0 {
		*h = Histogram{}
		return nil
	}
	lo, hi, last := *doc.Min, *doc.Max, len(doc.Bucket)-1
	if lo > hi || bucketOf(lo) != doc.Bucket[0] || bucketOf(hi) != doc.Bucket[last] {
		return fmt.Errorf("stats: histogram extremes [%v, %v] lie outside its buckets %d…%d", lo, hi, doc.Bucket[0], doc.Bucket[last])
	}
	*h = Histogram{counts: make(map[uint32]uint64, len(doc.Bucket)), n: total, min: lo, max: hi}
	for i, b := range doc.Bucket {
		h.counts[b] = doc.Count[i]
	}
	return nil
}
