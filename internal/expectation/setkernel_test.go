package expectation

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// TestSetKernelMatchesReference sweeps random task sets across the
// interesting regimes (λw ≪ 1, moderate, near and past overflow) and
// pins SegmentLast/SegmentCost/WorkOnly against Model.ExpectedTime on
// the accumulated work sum.
func TestSetKernelMatchesReference(t *testing.T) {
	r := rng.New(41)
	models := []Model{
		{Lambda: 1e-6, Downtime: 0},
		{Lambda: 0.01, Downtime: 0.5},
		{Lambda: 0.5, Downtime: 2},
		{Lambda: 30, Downtime: 0.1}, // pushes λ·ΣW near/past MaxExpArg
	}
	for _, m := range models {
		n := 16
		weights := make([]float64, n)
		ckpt := make([]float64, n)
		for i := range weights {
			weights[i] = r.Range(0, 12)
			ckpt[i] = r.Range(0, 2)
		}
		// A couple of degenerate tasks.
		weights[0], ckpt[0] = 0, 0
		k, err := NewSetKernel(m, weights, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			acc := k.Empty()
			var wSum float64
			size := 1 + r.IntN(n)
			for s := 0; s < size; s++ {
				task := r.IntN(n)
				acc = k.Push(acc, task)
				wSum += weights[task]
			}
			rec := r.Range(0, 30)
			amp := k.Amp(rec)
			last := r.IntN(n)
			checkClose(t, "SegmentLast", k.SegmentLast(acc, amp, last),
				m.ExpectedTime(wSum, ckpt[last], rec))
			c := r.Range(0, 5)
			checkClose(t, "SegmentCost", k.SegmentCost(acc, amp, c),
				m.ExpectedTime(wSum, c, rec))
			checkClose(t, "WorkOnly", k.WorkOnly(acc, amp),
				m.ExpectedTime(wSum, 0, rec))
			if got := k.WorkOnly(acc, amp); got > k.SegmentLast(acc, amp, last)*k.Slack() {
				t.Fatalf("WorkOnly %v not a lower bound for SegmentLast %v", got, k.SegmentLast(acc, amp, last))
			}
		}
	}
}

func checkClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.IsInf(want, 1) {
		if !math.IsInf(got, 1) {
			t.Fatalf("%s = %v, want +Inf", what, got)
		}
		return
	}
	// The accumulated argument may round differently from λ·(ΣW+C); the
	// contract is the kernel's documented ~4e-13 relative error plus the
	// accumulation noise — 1e-11 has ample headroom.
	if numeric.RelErr(got, want) > 1e-11 {
		t.Fatalf("%s = %v, want %v (rel err %v)", what, got, want, numeric.RelErr(got, want))
	}
}

// TestSetKernelInfSemantics pins the +Inf edges: amplitude overflow
// (λ·rec past the threshold) and argument overflow.
func TestSetKernelInfSemantics(t *testing.T) {
	m := Model{Lambda: 1, Downtime: 0}
	k, err := NewSetKernel(m, []float64{800}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if amp := k.Amp(800); !math.IsInf(amp, 1) {
		t.Errorf("Amp(λ·rec=800) = %v, want +Inf", amp)
	}
	acc := k.Push(k.Empty(), 0) // λ·W = 800 > MaxExpArg
	if v := k.SegmentLast(acc, k.Amp(0), 0); !math.IsInf(v, 1) {
		t.Errorf("overflowing segment = %v, want +Inf", v)
	}
	if v := k.SegmentCost(acc, k.Amp(0), 0); !math.IsInf(v, 1) {
		t.Errorf("overflowing SegmentCost = %v, want +Inf", v)
	}
	// +Inf amplitude dominates even a zero-work segment (no 0·Inf NaN).
	if v := k.WorkOnly(k.Empty(), math.Inf(1)); !math.IsInf(v, 1) {
		t.Errorf("Inf amp · empty segment = %v, want +Inf", v)
	}
}

// TestSetKernelPushOrderInvariance checks that the accumulator is
// insensitive to push order far beyond the pruning slack: the lattice
// DFS reaches the same set along different paths and must see
// consistent values.
func TestSetKernelPushOrderInvariance(t *testing.T) {
	m := Model{Lambda: 0.05, Downtime: 1}
	r := rng.New(42)
	n := 12
	weights := make([]float64, n)
	ckpt := make([]float64, n)
	for i := range weights {
		weights[i] = r.Range(0.1, 9)
		ckpt[i] = r.Range(0.01, 0.4)
	}
	k, err := NewSetKernel(m, weights, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fwd, rev := k.Empty(), k.Empty()
	for i := 0; i < n; i++ {
		fwd = k.Push(fwd, i)
		rev = k.Push(rev, n-1-i)
	}
	amp := k.Amp(3)
	a, b := k.SegmentLast(fwd, amp, 4), k.SegmentLast(rev, amp, 4)
	if numeric.RelErr(a, b) > 1e-12 {
		t.Errorf("push-order sensitivity: %v vs %v", a, b)
	}
}

// TestSegmentKernelReinitMatchesFresh pins buffer reuse: a kernel
// reinitialized from a larger problem to a smaller one must reproduce a
// fresh build bit-for-bit, including the recInf flags and the suffix
// argmin that only a stale-buffer bug would leave set.
func TestSegmentKernelReinitMatchesFresh(t *testing.T) {
	mBig := Model{Lambda: 1, Downtime: 0}
	big := []float64{100, 900, 3} // λ·rec = 900 sets recInf on position 1
	kb, err := NewSegmentKernel(mBig, big, big, big[0], big[1:])
	if err != nil {
		t.Fatal(err)
	}
	_ = kb.Segment(0, 2)
	kb.PrepareBound() // its suffix argmin differs from the fresh build's at j = 1

	m := Model{Lambda: 0.02, Downtime: 0.5}
	weights := []float64{4, 7, 2}
	ckpt := []float64{0.3, 0.1, 0.2}
	rec := []float64{0.5, 0.3, 0.1}
	if err := kb.Reinit(m, weights, ckpt, rec[0], rec[1:]); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSegmentKernel(m, weights, ckpt, rec[0], rec[1:])
	if err != nil {
		t.Fatal(err)
	}
	kb.PrepareBound()
	fresh.PrepareBound()
	if kb.Len() != fresh.Len() {
		t.Fatalf("reused Len = %d, fresh = %d", kb.Len(), fresh.Len())
	}
	for x := 0; x < 3; x++ {
		for j := x; j < 3; j++ {
			if got, want := kb.Segment(x, j), fresh.Segment(x, j); got != want {
				t.Errorf("Segment(%d,%d): reused %v, fresh %v", x, j, got, want)
			}
			if got, want := kb.Bound(x, j), fresh.Bound(x, j); got != want {
				t.Errorf("Bound(%d,%d): reused %v, fresh %v", x, j, got, want)
			}
		}
	}
	if kb.Slack() != fresh.Slack() {
		t.Errorf("Slack: reused %v, fresh %v", kb.Slack(), fresh.Slack())
	}
}
