package core

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
)

// The per-segment cost rescans below are the test oracle of
// PlanSegments: each call recomputes one segment's checkpoint or
// recovery cost from scratch, straight from the cost model's definition.

// CheckpointCost returns C of the task at position end.
func (lc LastTaskCosts) CheckpointCost(g *dag.Graph, order []int, _, end int) float64 {
	return g.Task(order[end]).Checkpoint
}

// RecoveryCost returns R of the task at position end.
func (lc LastTaskCosts) RecoveryCost(g *dag.Graph, order []int, end int) float64 {
	return g.Task(order[end]).Recovery
}

// CheckpointCost sums C_i over the live tasks of the segment [start, end].
func (lv LiveSetCosts) CheckpointCost(g *dag.Graph, order []int, start, end int) float64 {
	return lv.on(g, order).CheckpointCost(g, order, start, end)
}

// RecoveryCost sums R_i over every live task of the prefix [0, end].
func (lv LiveSetCosts) RecoveryCost(g *dag.Graph, order []int, end int) float64 {
	return lv.on(g, order).RecoveryCost(g, order, end)
}

// liveAt reports whether the task at position i still has a live output
// when the prefix [0, end] has executed.
func liveAt(g *dag.Graph, order []int, executedBy []int, i, end int) bool {
	succ := g.Successors(order[i])
	if len(succ) == 0 {
		return true // sink: output is a final result
	}
	for _, s := range succ {
		if executedBy[s] > end {
			return true
		}
	}
	return false
}

// on binds the model to one order, computing its task positions once.
func (lv LiveSetCosts) on(g *dag.Graph, order []int) liveSetOnOrder {
	pos := make([]int, g.Len())
	for i, id := range order {
		pos[id] = i
	}
	return liveSetOnOrder{lv, pos}
}

// liveSetOnOrder is LiveSetCosts with the task positions of the order
// its methods are called with.
type liveSetOnOrder struct {
	LiveSetCosts
	pos []int
}

func (lo liveSetOnOrder) CheckpointCost(g *dag.Graph, order []int, start, end int) float64 {
	var sum float64
	for i := start; i <= end; i++ {
		if liveAt(g, order, lo.pos, i, end) {
			sum += g.Task(order[i]).Checkpoint
		}
	}
	return sum
}

func (lo liveSetOnOrder) RecoveryCost(g *dag.Graph, order []int, end int) float64 {
	var sum float64
	for i := 0; i <= end; i++ {
		if liveAt(g, order, lo.pos, i, end) {
			sum += g.Task(order[i]).Recovery
		}
	}
	return sum
}

// rescanCosts is a cost model with its per-segment rescans.
type rescanCosts interface {
	CostModel
	CheckpointCost(g *dag.Graph, order []int, start, end int) float64
	RecoveryCost(g *dag.Graph, order []int, end int) float64
}

// rescan returns cm's per-segment rescans.
func rescan(cm CostModel) rescanCosts { return cm.(rescanCosts) }

// recBeforeAt returns the recovery cost in force for a segment starting
// at position x: R₀ for x = 0, otherwise the rescanned recovery to the
// checkpoint after x−1.
func recBeforeAt(g *dag.Graph, order []int, cm CostModel, x int) float64 {
	if x == 0 {
		return cm.InitialRecovery()
	}
	return rescan(cm).RecoveryCost(g, order, x-1)
}

// rescanSegments is the oracle of PlanSegments: every segment costed by
// its own rescans.
func rescanSegments(g *dag.Graph, order []int, checkpointAfter []bool, cm CostModel, from int) []Segment {
	var segs []Segment
	start := from
	for end := from; end < len(order); end++ {
		if !checkpointAfter[end] {
			continue
		}
		sg := Segment{
			Start: start, End: end,
			Checkpoint: rescan(cm).CheckpointCost(g, order, start, end),
			Recovery:   recBeforeAt(g, order, cm, start),
		}
		for i := start; i <= end; i++ {
			sg.Work += g.Task(order[i]).Weight
		}
		segs = append(segs, sg)
		start = end + 1
	}
	return segs
}

// sameSegments reports whether two segmentations agree bit for bit.
func sameSegments(a, b []Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End ||
			math.Float64bits(a[i].Work) != math.Float64bits(b[i].Work) ||
			math.Float64bits(a[i].Checkpoint) != math.Float64bits(b[i].Checkpoint) ||
			math.Float64bits(a[i].Recovery) != math.Float64bits(b[i].Recovery) {
			return false
		}
	}
	return true
}

// ledgerInstance builds a random linearized DAG of 1 + size%24 tasks:
// task ids follow a random permutation of the positions, each forward
// pair of positions is an edge with probability density/255, and pin
// adds the edge from position 0 to the last position. The checkpoint
// vector takes position i from bit i of mask; the last is always set.
func ledgerInstance(seed uint64, size, density uint8, pin bool, mask uint64) (*dag.Graph, []int, []bool) {
	r := rng.New(seed)
	n := 1 + int(size)%24
	order := r.Perm(n)
	g := dag.New()
	for i := 0; i < n; i++ {
		g.MustAddTask(dag.Task{Weight: r.Range(0, 10), Checkpoint: r.Range(0, 3), Recovery: r.Range(0, 3)})
	}
	p := float64(density) / 255
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (pin && i == 0 && j == n-1) || r.Float64() < p {
				g.MustAddEdge(order[i], order[j])
			}
		}
	}
	ckv := make([]bool, n)
	for i := range ckv {
		ckv[i] = mask>>(uint(i)%64)&1 == 1
	}
	ckv[n-1] = true
	return g, order, ckv
}

// FuzzSegmentLedger pins PlanSegments to the per-segment rescans bit
// for bit, under both cost models, for suffixes from the first, the
// middle and the last position of random small DAGs and checkpoint
// vectors. Seeds include an all-sinks Independent instance (the frozen
// sink run covers the whole list) and an edge from position 0 to the
// last position (the run never starts, every recovery walks the list).
func FuzzSegmentLedger(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0), false, uint64(0x5a5), uint8(0))
	f.Add(uint64(2), uint8(15), uint8(40), true, uint64(0x3333), uint8(1))
	f.Add(uint64(3), uint8(23), uint8(90), false, uint64(0xffffff), uint8(2))
	f.Add(uint64(4), uint8(9), uint8(255), true, uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, size, density uint8, pin bool, mask uint64, fromSel uint8) {
		g, order, ckv := ledgerInstance(seed, size, density, pin, mask)
		n := len(order)
		from := [3]int{0, n / 2, n - 1}[fromSel%3]
		for _, cm := range []CostModel{LastTaskCosts{R0: 0.7}, LiveSetCosts{R0: 0.7}} {
			got, err := PlanSegments(g, order, ckv, cm, from)
			if err != nil {
				t.Fatalf("%s from %d: %v", cm.Name(), from, err)
			}
			if want := rescanSegments(g, order, ckv, cm, from); !sameSegments(got, want) {
				t.Fatalf("%s from %d:\nledger %+v\nrescan %+v", cm.Name(), from, got, want)
			}
		}
	})
}

// TestPlanSegmentsLargeMatchesRescan runs the ledger against the
// rescans on ~1000-task graphs of every family, where the live list is
// long and the frozen sink run matters, with the DP's own plans and an
// every-3rd-position plan.
func TestPlanSegmentsLargeMatchesRescan(t *testing.T) {
	ws := dag.DefaultWeights()
	for i, build := range []func(r *rng.Stream) (*dag.Graph, error){
		func(r *rng.Stream) (*dag.Graph, error) { return dag.Layered(100, 10, 0.3, ws, r) },
		func(r *rng.Stream) (*dag.Graph, error) { return dag.ForkJoin(10, 100, ws, r) },
		func(r *rng.Stream) (*dag.Graph, error) { return dag.MontageLike(500, ws, r) },
		func(r *rng.Stream) (*dag.Graph, error) { return dag.Independent(1000, ws, r) },
		func(r *rng.Stream) (*dag.Graph, error) { return dag.GNP(300, 0.02, ws, r) },
	} {
		g, err := build(rng.New(uint64(500 + i)))
		if err != nil {
			t.Fatal(err)
		}
		order, err := HeaviestFirstStrategy().Order(g)
		if err != nil {
			t.Fatal(err)
		}
		n := len(order)
		every3 := make([]bool, n)
		for p := 2; p < n; p += 3 {
			every3[p] = true
		}
		every3[n-1] = true
		for _, cm := range []CostModel{LastTaskCosts{R0: 0.4}, LiveSetCosts{R0: 0.4}} {
			res, err := SolveOrderDP(g, order, mustModelT(t, 1e-3, 0.5), cm)
			if err != nil {
				t.Fatal(err)
			}
			for _, ckv := range [][]bool{res.CheckpointAfter, every3} {
				for _, from := range []int{0, n / 3} {
					got, err := PlanSegments(g, order, ckv, cm, from)
					if err != nil {
						t.Fatal(err)
					}
					if !sameSegments(got, rescanSegments(g, order, ckv, cm, from)) {
						t.Fatalf("graph %d %s from %d: ledger differs from the rescans", i, cm.Name(), from)
					}
				}
			}
		}
	}
}

// TestPlanSegmentsRejects covers PlanSegments' argument checks.
func TestPlanSegmentsRejects(t *testing.T) {
	g, order, ckv := ledgerInstance(5, 7, 60, false, 0x15)
	for name, call := range map[string]func() error{
		"nil model":   func() error { _, err := PlanSegments(g, order, ckv, nil, 0); return err },
		"short order": func() error { _, err := PlanSegments(g, order[1:], ckv[1:], LastTaskCosts{}, 0); return err },
		"short flags": func() error { _, err := PlanSegments(g, order, ckv[1:], LiveSetCosts{}, 0); return err },
		"from < 0":    func() error { _, err := PlanSegments(g, order, ckv, LiveSetCosts{}, -1); return err },
		"from ≥ n":    func() error { _, err := PlanSegments(g, order, ckv, LiveSetCosts{}, len(order)); return err },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := SolveOrderDP(g, order, mustModelT(t, 0.01, 0), nil); err == nil {
		t.Error("SolveOrderDP accepted a nil cost model")
	}
}
