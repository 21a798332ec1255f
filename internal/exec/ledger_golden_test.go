package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/rng"
)

// workloadLedgerGolden is the sha256 TestSegmentLedgerGolden computes:
// the fingerprint, the planned makespan and every segment of the DAG
// workloads compiled from the golden instances' plans. Journal hashes
// mix the workload fingerprint in, so this pins them at the source.
// Compared on amd64 only, where float arithmetic is not fused.
const workloadLedgerGolden = "b0f8ad0c8b3d21f59434f8e5f52e5d0fbbff0263c155a045f238fa425365970f"

// TestSegmentLedgerGolden is the executor-side twin of core's golden:
// on the same four graph families of about 2000 tasks under both cost
// models, it compiles the SolveOrderDP plan of the topological order
// and the SolveDAGWith portfolio plan through NewDAGWorkload and hashes
// the workload's Fingerprint, Planned and CoreSegments bits.
func TestSegmentLedgerGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hash is pinned on amd64")
	}
	m, err := expectation.NewModel(1e-3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ws := dag.DefaultWeights()
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
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
		order, err := g.TopologicalOrder()
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range []core.CostModel{core.LastTaskCosts{R0: 0.3}, core.LiveSetCosts{R0: 0.3}} {
			dp, err := core.SolveOrderDP(g, order, m, cm)
			if err != nil {
				t.Fatal(err)
			}
			best, err := core.SolveDAGWith(g, m, cm, core.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []core.DAGResult{dp, best} {
				w, err := NewDAGWorkload(g, res.Plan(), cm)
				if err != nil {
					t.Fatal(err)
				}
				word(w.Fingerprint())
				word(math.Float64bits(w.Planned(m)))
				for _, sg := range w.CoreSegments() {
					word(uint64(sg.Start))
					word(uint64(sg.End))
					word(math.Float64bits(sg.Work))
					word(math.Float64bits(sg.Checkpoint))
					word(math.Float64bits(sg.Recovery))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != workloadLedgerGolden {
		t.Fatalf("workload ledger golden moved:\n got %s\nwant %s", got, workloadLedgerGolden)
	}
}
