package stats

// TDigest is a mergeable streaming quantile sketch (Dunning & Ertl's
// t-digest, merging variant), the Monte-Carlo pipeline's one quantile
// estimator. It summarizes the *whole* distribution in O(δ) centroids
// and — the property the sharded campaigns need — two digests built on
// disjoint shards Merge into a digest of the union. Million-run
// makespan distributions therefore aggregate across shards (and across
// separate processes, via the JSON serialization) in O(centroids)
// memory per shard.
//
// Accuracy: centroids are size-bounded by the scale function
// k(q) = δ/(2π)·asin(2q−1), which keeps a centroid's rank width below
// ≈ 4·q(1−q)/δ of the total count. The rank error of Quantile is at
// most half the local centroid width, so observed rank error is
// ≤ ~2·q(1−q)·n/δ + O(1) — tight at the tails (q(1−q) → 0), loosest at
// the median. The tdigest tests pin a conservative 6·q(1−q)·n/δ + 20
// bound against exact sort quantiles across distributions and merge
// shapes; DESIGN.md documents the bound. Min and max are tracked
// exactly.
//
// Determinism: Add, Merge and compression are deterministic functions
// of the observation sequence and merge order. Two digests fed the same
// stream are identical; folds over the same parts in the same order are
// identical (the sharded campaigns always fold in block/shard order).
// Folding in a *different* grouping yields a statistically equivalent
// but not bit-identical digest — the campaign determinism contract
// therefore pins means/deltas bitwise and digests in quantile space.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultTDigestCompression is the δ used by the campaign pipeline:
// ~2·δ centroids worst case (≈6 KB), mid-quantile rank error ~n/400.
const DefaultTDigestCompression = 200

// TDigest accumulates observations into size-bounded centroids. The
// zero value is not usable; call NewTDigest.
type TDigest struct {
	compression float64
	// merged centroids, sorted ascending by mean
	means   []float64
	weights []float64
	// unmerged buffer, compressed when it reaches cap(bufMeans)
	bufMeans   []float64
	bufWeights []float64
	count      float64 // total weight, including the buffer
	min, max   float64
}

// NewTDigest returns a digest with the given compression δ (≥ 10;
// DefaultTDigestCompression is the pipeline's choice).
func NewTDigest(compression float64) *TDigest {
	if !(compression >= 10) || math.IsInf(compression, 0) {
		panic(fmt.Sprintf("stats: t-digest compression must be ≥ 10 and finite, got %v", compression))
	}
	bufCap := 4 * int(compression)
	return &TDigest{
		compression: compression,
		bufMeans:    make([]float64, 0, bufCap),
		bufWeights:  make([]float64, 0, bufCap),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Compression returns δ.
func (t *TDigest) Compression() float64 { return t.compression }

// N returns the total weight (observation count for unit-weight adds).
func (t *TDigest) N() float64 { return t.count }

// Min returns the smallest observation (+Inf when empty).
func (t *TDigest) Min() float64 { return t.min }

// Max returns the largest observation (−Inf when empty).
func (t *TDigest) Max() float64 { return t.max }

// Add accumulates one observation with unit weight.
func (t *TDigest) Add(x float64) { t.AddWeighted(x, 1) }

// AddWeighted accumulates one observation with the given positive
// weight. NaN observations and non-positive weights panic: a sketch
// that silently absorbed them would mask simulation bugs.
func (t *TDigest) AddWeighted(x, w float64) {
	if math.IsNaN(x) || !(w > 0) {
		panic(fmt.Sprintf("stats: t-digest add of x=%v w=%v", x, w))
	}
	if len(t.bufMeans) == cap(t.bufMeans) {
		t.compress()
	}
	t.bufMeans = append(t.bufMeans, x)
	t.bufWeights = append(t.bufWeights, w)
	t.count += w
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
}

// Merge folds other into t, as if every observation of other had been
// added to t (in sketch form: other's centroids become weighted
// observations). other is not modified. Merging is how shard digests
// aggregate; fold order is part of the determinism contract.
func (t *TDigest) Merge(other *TDigest) {
	if other == nil || other.count == 0 {
		return
	}
	add := func(ms, ws []float64) {
		for i, m := range ms {
			if len(t.bufMeans) == cap(t.bufMeans) {
				t.compress()
			}
			t.bufMeans = append(t.bufMeans, m)
			t.bufWeights = append(t.bufWeights, ws[i])
			t.count += ws[i]
		}
	}
	add(other.means, other.weights)
	add(other.bufMeans, other.bufWeights)
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
	t.compress()
}

// compress merges the buffer into the centroid list with the k1 scale
// function. Deterministic: the combined centroids are sorted by
// (mean, weight) and swept left to right.
func (t *TDigest) compress() {
	if len(t.bufMeans) == 0 {
		return
	}
	n := len(t.means) + len(t.bufMeans)
	ms := make([]float64, 0, n)
	ws := make([]float64, 0, n)
	ms = append(append(ms, t.means...), t.bufMeans...)
	ws = append(append(ws, t.weights...), t.bufWeights...)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if ms[ia] != ms[ib] {
			return ms[ia] < ms[ib]
		}
		return ws[ia] < ws[ib]
	})
	total := 0.0
	for _, w := range ws {
		total += w
	}
	outM := t.means[:0]
	outW := t.weights[:0]
	curM, curW := ms[idx[0]], ws[idx[0]]
	emitted := 0.0 // weight of centroids already emitted
	qLimit := t.qFromK(t.kFromQ(0) + 1)
	for _, j := range idx[1:] {
		m, w := ms[j], ws[j]
		if (emitted+curW+w)/total <= qLimit {
			// Absorb into the current centroid (weighted mean update).
			// Equal means are NOT merged beyond the size bound on
			// purpose: interpolation accuracy on atom-heavy streams
			// depends on atoms staying split across many centroids, so
			// the rank knots stay dense around each atom.
			curW += w
			curM += w * (m - curM) / curW
		} else {
			outM = append(outM, curM)
			outW = append(outW, curW)
			emitted += curW
			qLimit = t.qFromK(t.kFromQ(emitted/total) + 1)
			curM, curW = m, w
		}
	}
	outM = append(outM, curM)
	outW = append(outW, curW)
	t.means, t.weights = outM, outW
	t.bufMeans = t.bufMeans[:0]
	t.bufWeights = t.bufWeights[:0]
}

// kFromQ is the k1 scale function δ/(2π)·asin(2q−1).
func (t *TDigest) kFromQ(q float64) float64 {
	if q <= 0 {
		return -t.compression / 4
	}
	if q >= 1 {
		return t.compression / 4
	}
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// qFromK inverts kFromQ.
func (t *TDigest) qFromK(k float64) float64 {
	if k >= t.compression/4 {
		return 1
	}
	if k <= -t.compression/4 {
		return 0
	}
	return (math.Sin(k*2*math.Pi/t.compression) + 1) / 2
}

// Quantile returns the q-quantile estimate (0 ≤ q ≤ 1) by piecewise
// linear interpolation in rank space between centroid midpoints, with
// the exact min and max as anchors. NaN when empty.
func (t *TDigest) Quantile(q float64) float64 {
	t.compress()
	if len(t.means) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	target := q * t.count
	// Rank-space knots: (0, min), (cum_i + w_i/2, mean_i)…, (count, max).
	prevRank, prevVal := 0.0, t.min
	cum := 0.0
	for i := range t.means {
		mid := cum + t.weights[i]/2
		if target < mid {
			if mid == prevRank {
				return t.means[i]
			}
			frac := (target - prevRank) / (mid - prevRank)
			return prevVal + frac*(t.means[i]-prevVal)
		}
		cum += t.weights[i]
		prevRank, prevVal = mid, t.means[i]
	}
	if t.count == prevRank {
		return t.max
	}
	frac := (target - prevRank) / (t.count - prevRank)
	return prevVal + frac*(t.max-prevVal)
}

// tdigestJSON is the serialized form: compressed centroids plus the
// exact extremes. JSON float64 round-trips exactly (shortest-form
// encoding), so a digest survives serialization bit-identically.
type tdigestJSON struct {
	Compression float64   `json:"compression"`
	Count       float64   `json:"count"`
	Min         *float64  `json:"min,omitempty"`
	Max         *float64  `json:"max,omitempty"`
	Means       []float64 `json:"means"`
	Weights     []float64 `json:"weights"`
}

// MarshalJSON serializes the digest (compressing the buffer first, so
// the form is canonical for the observation sequence).
func (t *TDigest) MarshalJSON() ([]byte, error) {
	t.compress()
	doc := tdigestJSON{
		Compression: t.compression,
		Count:       t.count,
		Means:       t.means,
		Weights:     t.weights,
	}
	if t.count > 0 {
		// ±Inf sentinels of the empty digest are not valid JSON numbers;
		// only real extremes are serialized.
		doc.Min, doc.Max = &t.min, &t.max
	}
	return json.Marshal(doc)
}

// maxDecodedCompression is the largest compression UnmarshalJSON
// accepts: about 80× the pipeline's, a 1 MB buffer.
const maxDecodedCompression = 1 << 14

// UnmarshalJSON restores a digest serialized by MarshalJSON.
func (t *TDigest) UnmarshalJSON(data []byte) error {
	var doc tdigestJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	// The compression sizes the buffer (4δ slots per column), so a
	// decoded one is bounded: bytes from disk must not pick the size of
	// an allocation.
	if !(doc.Compression >= 10 && doc.Compression <= maxDecodedCompression) {
		return fmt.Errorf("stats: t-digest compression %v out of range [10, %d]", doc.Compression, maxDecodedCompression)
	}
	if len(doc.Means) != len(doc.Weights) {
		return fmt.Errorf("stats: t-digest has %d means but %d weights", len(doc.Means), len(doc.Weights))
	}
	var total float64
	for i, w := range doc.Weights {
		if !(w > 0) {
			return fmt.Errorf("stats: t-digest weight %v at centroid %d", w, i)
		}
		if i > 0 && doc.Means[i] < doc.Means[i-1] {
			return fmt.Errorf("stats: t-digest centroids out of order at %d", i)
		}
		total += w
	}
	// The incremental count can differ from the centroid-weight sum in
	// the last ulp; the serialized count is authoritative so round-trips
	// are bit-identical, but it must agree with the weights it claims to
	// summarize.
	if math.Abs(doc.Count-total) > 1e-9*math.Max(doc.Count, total) {
		return fmt.Errorf("stats: t-digest count %v inconsistent with centroid weight %v", doc.Count, total)
	}
	fresh := NewTDigest(doc.Compression)
	fresh.means = doc.Means
	fresh.weights = doc.Weights
	fresh.count = doc.Count
	if doc.Min != nil {
		fresh.min = *doc.Min
	}
	if doc.Max != nil {
		fresh.max = *doc.Max
	}
	*t = *fresh
	return nil
}
