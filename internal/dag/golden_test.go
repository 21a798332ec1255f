package dag

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/rng"
)

// graphDigest hashes everything a Graph exposes: its size and edge
// count, every task's fields and name, both adjacency lists of every
// task, and the MarshalJSON bytes (reported separately so a layout
// change that only moves the encoding is told apart).
func graphDigest(t *testing.T, g *Graph) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(h hash.Hash, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(h, uint64(g.Len()))
	put(h, uint64(g.EdgeCount()))
	for v := 0; v < g.Len(); v++ {
		tk := g.Task(v)
		put(h, uint64(tk.ID))
		put(h, uint64(len(tk.Name)))
		h.Write([]byte(tk.Name))
		put(h, math.Float64bits(tk.Weight))
		put(h, math.Float64bits(tk.Checkpoint))
		put(h, math.Float64bits(tk.Recovery))
		for _, list := range [][]int{g.Successors(v), g.Predecessors(v)} {
			put(h, uint64(len(list)))
			for _, u := range list {
				put(h, uint64(u))
			}
		}
	}
	js, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jh := sha256.Sum256(js)
	return fmt.Sprintf("graph=%x json=%x", h.Sum(nil)[:8], jh[:8])
}

// goldenGraphs builds one instance of every generator plus a hand-built
// graph that mixes default and explicit names with edges added between
// tasks, and a Read round trip of the layered instance.
func goldenGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	ws := DefaultWeights()
	must := func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	out := map[string]*Graph{
		"chain":       must(Chain(1000, ws, rng.New(1))),
		"independent": must(Independent(300, ws, rng.New(2))),
		"weights":     must(IndependentWithWeights([]float64{3, 1.5, 0, 7.25, 2}, 0.4, 0.6)),
		"forkjoin":    must(ForkJoin(7, 5, ws, rng.New(3))),
		"layered":     must(Layered(12, 9, 0.3, ws, rng.New(4))),
		"montage":     must(MontageLike(17, ws, rng.New(5))),
		"gnp":         must(GNP(60, 0.1, ws, rng.New(6))),
		"intree":      must(IntreeFromChains(5, 6, ws, rng.New(7))),
	}
	hand := New()
	a := hand.MustAddTask(Task{Weight: 1, Checkpoint: 0.1, Recovery: 0.2})
	b := hand.MustAddTask(Task{Name: "load", Weight: 2})
	hand.MustAddEdge(a, b)
	c := hand.MustAddTask(Task{Weight: 3, Checkpoint: 0.3})
	hand.MustAddEdge(a, c)
	d := hand.MustAddTask(Task{Name: "T1", Weight: 4})
	hand.MustAddEdge(c, d)
	hand.MustAddEdge(b, d)
	hand.MustAddTask(Task{Weight: 5})
	out["hand"] = hand
	js, err := out["layered"].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	out["read"] = must(Read(bytes.NewReader(js)))
	return out
}

// TestGraphGolden pins every generator's graph, a hand-built graph and a
// Read round trip: task fields and names, adjacency in insertion order,
// the edge count and the JSON encoding. The figures were recorded before
// the graph's storage became a set of flat arrays; any layout change must
// leave every one of them unchanged, and a generated graph's Clone must
// hash like its source.
func TestGraphGolden(t *testing.T) {
	want := map[string]string{
		"chain":       "graph=4b0f628f312a455d json=92e8fc186617a005",
		"forkjoin":    "graph=5162e625edc6b114 json=474bc5a5cd438adb",
		"gnp":         "graph=1bd967653d134289 json=f780ab27ee7b5016",
		"hand":        "graph=9249709423f63b5d json=a5efba88fa0be0c2",
		"independent": "graph=587f832cb8060ee5 json=fbdd865dc26012b3",
		"intree":      "graph=9bc843834eba226d json=cefb4b8ff81a5c11",
		"layered":     "graph=630a6945a1252bf2 json=f571bdbd3cd1fd12",
		"montage":     "graph=49f158b087c49c23 json=72ec4934e4c167e6",
		"read":        "graph=630a6945a1252bf2 json=f571bdbd3cd1fd12",
		"weights":     "graph=e71f0a6129a661e5 json=19c965020cf70a7a",
	}
	for name, g := range goldenGraphs(t) {
		got := graphDigest(t, g)
		if got != want[name] {
			t.Errorf("%s: got %q\n\twant %q", name, got, want[name])
		}
		if name == "hand" {
			// Its edges arrive out of source order, which a Clone that
			// re-adds edges source by source would reorder in the
			// predecessor lists; TestCloneKeepsPredecessorOrder covers it.
			continue
		}
		if c := graphDigest(t, g.Clone()); c != got {
			t.Errorf("%s: clone digest %q, source %q", name, c, got)
		}
	}
}
