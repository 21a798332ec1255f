package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/rng"
)

// segmentLedgerGolden is the sha256 TestSegmentLedgerGolden computes. It
// pins every segment cost, checkpoint vector and expected makespan the
// per-order DP, the suffix re-solve and the portfolio report on the
// golden instances, bit for bit. Like the experiment fingerprints it is
// compared on amd64 only, where float arithmetic is not fused.
const segmentLedgerGolden = "b721ea6280e4a98d6521d9c4f42ea697df459ac87677de13eeae8ad60e084124"

// ledgerGoldenGraphs returns the golden instances: four graph families
// of about 2000 tasks each.
func ledgerGoldenGraphs(t *testing.T) []*dag.Graph {
	t.Helper()
	ws := dag.DefaultWeights()
	var gs []*dag.Graph
	for i, build := range []func(r *rng.Stream) (*dag.Graph, error){
		func(r *rng.Stream) (*dag.Graph, error) { return dag.Layered(200, 10, 0.3, ws, r) },
		func(r *rng.Stream) (*dag.Graph, error) { return dag.ForkJoin(20, 100, ws, r) },
		func(r *rng.Stream) (*dag.Graph, error) { return dag.MontageLike(999, ws, r) },
		func(r *rng.Stream) (*dag.Graph, error) { return dag.Independent(2000, ws, r) },
	} {
		g, err := build(rng.New(uint64(300 + i)))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// goldenWord writes v into h as eight little-endian bytes.
func goldenWord(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// goldenResult hashes a DAG result's order, checkpoint vector and value.
func goldenResult(h hash.Hash, r DAGResult) {
	goldenWord(h, uint64(len(r.Order)))
	for i, id := range r.Order {
		goldenWord(h, uint64(id))
		if r.CheckpointAfter[i] {
			goldenWord(h, 1)
		} else {
			goldenWord(h, 0)
		}
	}
	goldenWord(h, math.Float64bits(r.Expected))
	h.Write([]byte(r.Strategy))
}

// goldenSegments hashes every field of every segment.
func goldenSegments(h hash.Hash, segs []Segment) {
	goldenWord(h, uint64(len(segs)))
	for _, sg := range segs {
		goldenWord(h, uint64(sg.Start))
		goldenWord(h, uint64(sg.End))
		goldenWord(h, math.Float64bits(sg.Work))
		goldenWord(h, math.Float64bits(sg.Checkpoint))
		goldenWord(h, math.Float64bits(sg.Recovery))
	}
}

// TestSegmentLedgerGolden hashes, on Layered, ForkJoin, MontageLike and
// Independent graphs of about 2000 tasks under both cost models: the
// SolveOrderDP result on the topological order and its segments (the
// from = 0, overhead = 0 suffix), the suffix re-solve from n/2 with a
// checkpoint overhead of 1.5, and the SolveDAGWith portfolio result with
// the segments of its plan.
func TestSegmentLedgerGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hash is pinned on amd64")
	}
	m, err := expectation.NewModel(1e-3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, g := range ledgerGoldenGraphs(t) {
		order, err := g.TopologicalOrder()
		if err != nil {
			t.Fatal(err)
		}
		n := len(order)
		for _, cm := range []CostModel{LastTaskCosts{R0: 0.3}, LiveSetCosts{R0: 0.3}} {
			res, err := SolveOrderDP(g, order, m, cm)
			if err != nil {
				t.Fatal(err)
			}
			goldenResult(h, res)
			for _, from := range []int{0, n / 2} {
				overhead := 0.0
				if from > 0 {
					overhead = 1.5
				}
				segs, err := SolveOrderSuffix(g, order, m, cm, from, overhead)
				if err != nil {
					t.Fatal(err)
				}
				goldenSegments(h, segs)
			}
			best, err := SolveDAGWith(g, m, cm, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			goldenResult(h, best)
			segs, err := SolveOrderSuffix(g, best.Order, m, cm, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			goldenSegments(h, segs)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != segmentLedgerGolden {
		t.Fatalf("segment ledger golden moved:\n got %s\nwant %s", got, segmentLedgerGolden)
	}
}
