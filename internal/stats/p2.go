package stats

import (
	"math"
	"sort"
)

// P2Quantile is the P² (piecewise-parabolic) streaming quantile estimator
// of Jain & Chlamtac (CACM 1985): it tracks one quantile of a stream in
// O(1) memory and O(1) time per observation by maintaining five markers —
// the minimum, the maximum, the target quantile and the two midpoints —
// whose heights are nudged toward their ideal order-statistic positions
// with a parabolic (falling back to linear) interpolation step.
//
// Exact quantiles need every sample retained and sorted (O(runs) memory,
// O(runs·log runs) time); P² keeps memory independent of the run count,
// which is what million-run Monte-Carlo campaigns need.
type P2Quantile struct {
	q       float64
	n       int64
	heights [5]float64 // marker heights (estimated order statistics)
	pos     [5]float64 // actual marker positions, 1-based
	want    [5]float64 // desired marker positions
	dwant   [5]float64 // desired-position increments per observation
}

// NewP2Quantile returns an estimator for the q-quantile, 0 < q < 1.
func NewP2Quantile(q float64) *P2Quantile {
	if !(q > 0 && q < 1) || math.IsNaN(q) {
		panic("stats: P² quantile must be in (0, 1)")
	}
	p := &P2Quantile{q: q}
	p.pos = [5]float64{1, 2, 3, 4, 5}
	p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.dwant = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// N returns the number of observations seen.
func (p *P2Quantile) N() int64 { return p.n }

// Add accumulates one observation.
func (p *P2Quantile) Add(x float64) {
	if p.n < 5 {
		p.heights[p.n] = x
		p.n++
		if p.n == 5 {
			sort.Float64s(p.heights[:])
		}
		return
	}
	// Locate the cell containing x and update the extreme markers.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		if x > p.heights[4] {
			p.heights[4] = x
		}
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.dwant[i]
	}
	p.n++
	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := p.parabolic(i, s)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i one position in direction s (±1).
func (p *P2Quantile) parabolic(i int, s float64) float64 {
	num1 := p.pos[i] - p.pos[i-1] + s
	num2 := p.pos[i+1] - p.pos[i] - s
	den := p.pos[i+1] - p.pos[i-1]
	t1 := (p.heights[i+1] - p.heights[i]) / (p.pos[i+1] - p.pos[i])
	t2 := (p.heights[i] - p.heights[i-1]) / (p.pos[i] - p.pos[i-1])
	return p.heights[i] + s/den*(num1*t1+num2*t2)
}

// linear is the fallback height prediction when the parabola overshoots a
// neighbouring marker.
func (p *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return p.heights[i] + s*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current quantile estimate. For fewer than five
// observations it interpolates the sorted buffer exactly, so small
// streams degrade gracefully; NaN when empty.
//
// For n ≥ 5 the estimate interpolates the marker polyline (pos, heights)
// at the desired rank 1 + q·(n−1) rather than returning the raw center
// marker: right after initialization the center marker is the sample
// median whatever q is, and it takes O(|q−0.5|·n) further observations
// to drift to the target rank. At n = 5 the markers are exact order
// statistics, so the interpolation is the exact empirical quantile for
// any q; at large n the center marker position is within one rank of
// the target and the correction is a vanishing fraction of the
// inter-marker span, so the estimate coincides with the classic
// heights[2] in the limit.
func (p *P2Quantile) Value() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	if p.n < 5 {
		buf := make([]float64, p.n)
		copy(buf, p.heights[:p.n])
		sort.Float64s(buf)
		return quantileSorted(buf, p.q)
	}
	t := 1 + p.q*float64(p.n-1)
	for i := 0; i < 4; i++ {
		if t <= p.pos[i+1] {
			frac := (t - p.pos[i]) / (p.pos[i+1] - p.pos[i])
			return p.heights[i] + frac*(p.heights[i+1]-p.heights[i])
		}
	}
	return p.heights[4]
}
