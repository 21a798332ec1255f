package expectation

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// SetKernel is the SegmentKernel's sibling for order-free DP states: it
// evaluates the Proposition 1 segment expectation when a segment is a
// *set* of tasks rather than a positional range of one fixed
// linearization. The downset-lattice solver (core.SolveDAGLattice)
// extends segments one task at a time while walking the lattice, so the
// kernel carries the running work term as a scaled-exponential
// accumulator (SetAccum): pushing task t multiplies in the precomputed
// pair e^{λ·w_t} = frac·2^exp (numeric.ExpScaled), and closing a
// segment is one fused multiply against the last task's e^{λ·C_t} pair
// — zero transcendental calls per transition, exactly like the
// positional kernel's end/start tables.
//
// The numerical contract mirrors SegmentKernel: below
// StableArgThreshold (or when any pair saturated) the evaluation falls
// back to the expm1-stable expression, bit-identical to
// Model.ExpectedTime on the accumulated argument; λ(W+C) or λ·rec past
// numeric.MaxExpArg reports +Inf. Slack widens the pruning comparisons
// so a bound may only discard candidates that are strictly worse by
// more than every accumulated rounding error (the accumulator adds one
// rounding per pushed task on top of the table error — both are orders
// of magnitude below the base slack for any lattice-sized segment).
type SetKernel struct {
	model Model
	scale float64 // 1/λ + D

	weights []float64 // w_t, for admissible work bounds
	wArg    []float64 // λ·w_t
	wFrac   []float64 // e^{λ·w_t} scaled: frac ∈ [1,2)
	wExp    []int32
	cArg    []float64 // λ·C_t
	cFrac   []float64 // e^{λ·C_t} scaled
	cExp    []int32
	slack   float64
}

// SetAccum is the running state of one segment being extended: the
// accumulated λ·ΣW (plain and in scaled-exponential form) plus the raw
// work sum. It is a small value type — the lattice DFS passes it down
// the recursion and gets backtracking for free.
type SetAccum struct {
	// Arg is λ·ΣW over the pushed tasks.
	Arg float64
	// W is the plain work sum ΣW, for admissible failure-free bounds.
	W    float64
	frac float64
	exp  int32
	sat  bool
}

// NewSetKernel builds the kernel from per-task weights and checkpoint
// costs, indexed by task ID. Both slices must have equal positive
// length.
func NewSetKernel(m Model, weights, ckpt []float64) (*SetKernel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("expectation: set kernel needs at least one task")
	}
	if len(ckpt) != n {
		return nil, fmt.Errorf("expectation: set kernel slice lengths differ (%d, %d)", n, len(ckpt))
	}
	k := &SetKernel{
		model:   m,
		scale:   1/m.Lambda + m.Downtime,
		weights: append([]float64(nil), weights...),
		wArg:    make([]float64, n),
		wFrac:   make([]float64, n),
		wExp:    make([]int32, n),
		cArg:    make([]float64, n),
		cFrac:   make([]float64, n),
		cExp:    make([]int32, n),
	}
	var maxArg float64
	for i := 0; i < n; i++ {
		k.wArg[i] = m.Lambda * weights[i]
		k.cArg[i] = m.Lambda * ckpt[i]
		maxArg += k.wArg[i]
		if k.cArg[i] > maxArg {
			maxArg = k.cArg[i]
		}
	}
	copy(k.wFrac, k.wArg)
	numeric.ExpScaled(k.wFrac, k.wExp)
	copy(k.cFrac, k.cArg)
	numeric.ExpScaled(k.cFrac, k.cExp)
	// Same structure as the positional kernel's slack: base error plus
	// the large-argument degradation of the scaled tables, with the
	// accumulator's per-push rounding (≤ 64·ε) far below the base term.
	k.slack = 1 + kernelBaseSlack + 8e-16*math.Max(1, maxArg)
	return k, nil
}

// Len returns the number of tasks.
func (k *SetKernel) Len() int { return len(k.wArg) }

// Empty returns the accumulator of an empty segment.
func (k *SetKernel) Empty() SetAccum { return SetAccum{frac: 1} }

// Push returns the accumulator extended by task t.
func (k *SetKernel) Push(a SetAccum, t int) SetAccum {
	a.Arg += k.wArg[t]
	a.W += k.weights[t]
	if a.sat || k.wExp[t] >= numeric.ExpScaledSatExp {
		// A saturated pair's exponent is a sentinel, not a magnitude:
		// stop combining (which could overflow int32) and let the
		// evaluation fall back to the argument-based stable path.
		a.sat = true
		return a
	}
	a.frac *= k.wFrac[t] // [1,2)·[1,2) = [1,4)
	if a.frac >= 2 {
		a.frac *= 0.5 // exact
		a.exp++
	}
	a.exp += k.wExp[t]
	if a.exp >= numeric.ExpScaledSatExp {
		a.sat = true
	}
	return a
}

// Amp returns the per-state amplitude e^{λ·rec}·(1/λ + D), +Inf when
// λ·rec exceeds the overflow threshold — the same semantics as the
// positional kernel's amp table, hoisted once per lattice state.
func (k *SetKernel) Amp(rec float64) float64 {
	lr := k.model.Lambda * rec
	if lr > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return math.Exp(lr) * k.scale
}

// value evaluates amp·(e^{λ(W+C)} − 1) for the accumulated work plus an
// end term carried as (arg, frac, exp): fused product when safe, the
// expm1-stable path for small arguments or saturated pairs.
func (k *SetKernel) value(a SetAccum, amp, arg, frac float64, exp int32) float64 {
	if math.IsInf(amp, 1) {
		return math.Inf(1)
	}
	if arg > numeric.MaxExpArg {
		return math.Inf(1)
	}
	if a.sat || arg < StableArgThreshold || exp >= numeric.ExpScaledSatExp {
		return amp * math.Expm1(arg)
	}
	return amp * (numeric.LdexpProduct(frac, int(exp)) - 1)
}

// SegmentLast returns the expectation of executing the accumulated
// segment and checkpointing after task `last`, under amplitude amp —
// the transition of the base (last-task) cost model. Zero
// transcendental calls on the fast path.
func (k *SetKernel) SegmentLast(a SetAccum, amp float64, last int) float64 {
	return k.value(a, amp, a.Arg+k.cArg[last], a.frac*k.cFrac[last], a.exp+k.cExp[last])
}

// SegmentCost returns the expectation of the accumulated segment closed
// by a checkpoint of explicit cost c — for cost models whose checkpoint
// cost is maintained incrementally by the caller (the live-set model).
// Like the positional kernel's SegmentWithCost it pays one expm1, with
// the amplitude hoisted.
func (k *SetKernel) SegmentCost(a SetAccum, amp, c float64) float64 {
	if math.IsInf(amp, 1) {
		return math.Inf(1)
	}
	arg := a.Arg + k.model.Lambda*c
	if arg > numeric.MaxExpArg {
		return math.Inf(1)
	}
	return amp * math.Expm1(arg)
}

// WorkOnly returns the expectation of the accumulated segment with a
// zero-cost checkpoint — a lower bound on the segment term under any
// nonnegative checkpoint cost, which drives the lattice solver's
// branch-and-bound subtree pruning.
func (k *SetKernel) WorkOnly(a SetAccum, amp float64) float64 {
	return k.value(a, amp, a.Arg, a.frac, a.exp)
}

// Slack is the multiplicative safety factor for pruning comparisons,
// covering the kernel's worst-case relative error (see SegmentKernel).
func (k *SetKernel) Slack() float64 { return k.slack }
