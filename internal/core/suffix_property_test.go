package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// referenceSuffix is the plain recurrence every per-order DP arm must
// reproduce, the whole-order DP being the from = 0, overhead = 0 case:
// E[x] = min over j ≥ x of ExpectedTime(w(x..j), C(x, j) + overhead,
// R(x)) + E[j+1] for x ≥ from, every cost a per-segment rescan against
// the full order at absolute positions, no pruning and no kernel. The
// argmin segmentation is rebuilt with the rescans' true costs.
func referenceSuffix(g *dag.Graph, order []int, m expectation.Model, cm CostModel, from int, overhead float64) []Segment {
	n := len(order)
	best := make([]float64, n-from+1)
	ckv := make([]bool, n)
	choice := make([]int, n-from)
	for x := n - 1; x >= from; x-- {
		rec := recBeforeAt(g, order, cm, x)
		bx := math.Inf(1)
		var w float64
		cx := n - 1
		for j := x; j < n; j++ {
			w += g.Task(order[j]).Weight
			c := rescan(cm).CheckpointCost(g, order, x, j) + overhead
			v := m.ExpectedTime(w, c, rec) + best[j+1-from]
			if v < bx {
				bx = v
				cx = j
			}
		}
		best[x-from] = bx
		choice[x-from] = cx
	}
	for x := from; x < n; x = choice[x-from] + 1 {
		ckv[choice[x-from]] = true
	}
	return rescanSegments(g, order, ckv, cm, from)
}

// decisionValue evaluates a suffix plan the way the DP decides it:
// checkpoint costs inflated by overhead, summed right to left.
func decisionValue(m expectation.Model, segs []Segment, overhead float64) float64 {
	total := 0.0
	for i := len(segs) - 1; i >= 0; i-- {
		sg := segs[i]
		total = m.ExpectedTime(sg.Work, sg.Checkpoint+overhead, sg.Recovery) + total
	}
	return total
}

// TestSolveOrderSuffixMatchesReference pins SolveOrderSuffix to the
// reference recurrence on random DAGs under both cost models, for
// suffixes from the start, the middle and the last position, with and
// without a checkpoint overhead. Identical placements must give
// bit-identical segments; placements may differ only on decision ties
// within the kernel's error bound, where both must evaluate as optimal
// to ulp-scale relative error (the tolerance of kernel_property_test.go).
// From the start with no overhead the suffix plan is SolveOrderDP's.
func TestSolveOrderSuffixMatchesReference(t *testing.T) {
	r := rng.New(251)
	builders := []func(s *rng.Stream) (*dag.Graph, error){
		func(s *rng.Stream) (*dag.Graph, error) { return dag.Layered(5, 6, 0.4, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.ForkJoin(4, 3, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.MontageLike(6, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.Chain(30, dag.DefaultWeights(), s) },
		func(s *rng.Stream) (*dag.Graph, error) { return dag.GNP(20, 0.2, dag.DefaultWeights(), s) },
	}
	lambdas := []float64{1e-6, 0.01, 0.1, 0.5}
	for bi, build := range builders {
		for trial := 0; trial < 4; trial++ {
			g, err := build(r.Split())
			if err != nil {
				t.Fatal(err)
			}
			m := expectation.Model{Lambda: lambdas[trial], Downtime: r.Range(0, 1)}
			order, err := g.TopologicalOrder()
			if err != nil {
				t.Fatal(err)
			}
			n := len(order)
			r0 := r.Range(0, 1)
			for _, cm := range []CostModel{LastTaskCosts{R0: r0}, LiveSetCosts{R0: r0}} {
				for _, from := range []int{0, n / 2, n - 1} {
					for _, overhead := range []float64{0, 1.5} {
						tag := fmt.Sprintf("builder %d λ=%v %s from=%d overhead=%v", bi, m.Lambda, cm.Name(), from, overhead)
						got, err := SolveOrderSuffix(g, order, m, cm, from, overhead)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						checkSuffix(t, tag, g, order, m, cm, from, overhead, got)
						if from == 0 && overhead == 0 {
							full, err := SolveOrderDP(g, order, m, cm)
							if err != nil {
								t.Fatal(err)
							}
							ck := make([]bool, n)
							for _, sg := range got {
								ck[sg.End] = true
							}
							for i := range ck {
								if ck[i] != full.CheckpointAfter[i] {
									t.Fatalf("%s: suffix plan differs from SolveOrderDP's at %d", tag, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// checkSuffix compares a suffix plan with the reference recurrence's.
func checkSuffix(t *testing.T, tag string, g *dag.Graph, order []int, m expectation.Model, cm CostModel, from int, overhead float64, got []Segment) {
	t.Helper()
	want := referenceSuffix(g, order, m, cm, from, overhead)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i].End == want[i].End
	}
	if same {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: segment %d is %+v, reference %+v", tag, i, got[i], want[i])
			}
		}
		return
	}
	// Different placements: both must be valid covers with the true
	// costs, and tie under the decision arithmetic.
	next := from
	for _, sg := range got {
		if sg.Start != next || sg.End < sg.Start {
			t.Fatalf("%s: segments do not cover [%d, %d]: %+v", tag, from, len(order)-1, got)
		}
		if c := rescan(cm).CheckpointCost(g, order, sg.Start, sg.End); sg.Checkpoint != c {
			t.Fatalf("%s: [%d,%d] checkpoint %v, want true cost %v", tag, sg.Start, sg.End, sg.Checkpoint, c)
		}
		if rec := recBeforeAt(g, order, cm, sg.Start); sg.Recovery != rec {
			t.Fatalf("%s: [%d,%d] recovery %v, want %v", tag, sg.Start, sg.End, sg.Recovery, rec)
		}
		next = sg.End + 1
	}
	if next != len(order) {
		t.Fatalf("%s: segments end at %d, want %d", tag, next-1, len(order)-1)
	}
	vg, vw := decisionValue(m, got, overhead), decisionValue(m, want, overhead)
	if numeric.RelErr(vg, vw) > 1e-11 {
		t.Fatalf("%s: placements differ and decide %v vs reference %v", tag, vg, vw)
	}
}
