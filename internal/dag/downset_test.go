package dag

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
)

func latticeOf(t *testing.T, g *Graph) *Lattice {
	t.Helper()
	l, err := g.Lattice()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLatticeMasks(t *testing.T) {
	g := buildDiamond(t) // a→b, a→c, b→d, c→d
	l := latticeOf(t, g)
	pred, succ := l.Masks()
	if pred[0] != 0 || succ[0] != 0b0110 {
		t.Errorf("source masks: pred=%b succ=%b", pred[0], succ[0])
	}
	if pred[3] != 0b0110 || succ[3] != 0 {
		t.Errorf("sink masks: pred=%b succ=%b", pred[3], succ[3])
	}
	if l.Full() != 0b1111 {
		t.Errorf("Full = %b", l.Full())
	}
}

func TestLatticeDownsetPredicates(t *testing.T) {
	g := buildDiamond(t)
	l := latticeOf(t, g)
	if !l.IsDownset(0) || !l.IsDownset(0b0001) || !l.IsDownset(0b0111) || !l.IsDownset(l.Full()) {
		t.Error("valid downsets rejected")
	}
	if l.IsDownset(0b0010) || l.IsDownset(0b1000) {
		t.Error("predecessor-violating sets accepted")
	}
	if got := l.Ready(0); got != 0b0001 {
		t.Errorf("Ready(∅) = %b, want only the source", got)
	}
	if got := l.Ready(0b0001); got != 0b0110 {
		t.Errorf("Ready({a}) = %b, want {b, c}", got)
	}
	if got := l.MaximalIn(0b0111); got != 0b0110 {
		t.Errorf("MaximalIn({a,b,c}) = %b, want {b, c}", got)
	}
	if got := l.MaximalIn(l.Full()); got != 0b1000 {
		t.Errorf("MaximalIn(V) = %b, want the sink", got)
	}
}

// TestLatticeEachDownset pins duplicate-free enumeration of every
// downset on known shapes: chain n has n+1 downsets, the antichain has
// 2^n, and every visited set must actually be a downset.
func TestLatticeEachDownset(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"diamond", buildDiamond(t), 6}, // ∅ a ab ac abc abcd
	}
	if ch, err := Chain(7, DefaultWeights(), rng.New(1)); err == nil {
		cases = append(cases, struct {
			name string
			g    *Graph
			want int64
		}{"chain7", ch, 8})
	}
	if ind, err := Independent(6, DefaultWeights(), rng.New(2)); err == nil {
		cases = append(cases, struct {
			name string
			g    *Graph
			want int64
		}{"independent6", ind, 64})
	}
	for _, tc := range cases {
		l := latticeOf(t, tc.g)
		seen := map[uint64]bool{}
		l.EachDownset(func(d uint64) bool {
			if seen[d] {
				t.Errorf("%s: downset %b visited twice", tc.name, d)
			}
			seen[d] = true
			if !l.IsDownset(d) {
				t.Errorf("%s: non-downset %b visited", tc.name, d)
			}
			return true
		})
		if int64(len(seen)) != tc.want {
			t.Errorf("%s: %d downsets, want %d", tc.name, len(seen), tc.want)
		}
		if got := l.CountDownsets(); got != tc.want {
			t.Errorf("%s: CountDownsets = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLatticeEachSegmentUnique checks segment enumeration from a
// non-empty base downset: every emitted segment extends the base to a
// downset, exactly once.
func TestLatticeEachSegmentUnique(t *testing.T) {
	g, err := GNP(9, 0.3, DefaultWeights(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	l := latticeOf(t, g)
	var bases []uint64
	l.EachDownset(func(d uint64) bool {
		if bits.OnesCount64(d) == 3 {
			bases = append(bases, d)
		}
		return true
	})
	if len(bases) == 0 {
		t.Fatal("no level-3 downsets in test graph")
	}
	for _, base := range bases {
		seen := map[uint64]bool{}
		l.EachSegment(base, func(seg uint64, added int) bool {
			if seg == 0 || seg&base != 0 {
				t.Fatalf("segment %b overlaps base %b", seg, base)
			}
			if seen[seg] {
				t.Errorf("segment %b from base %b enumerated twice", seg, base)
			}
			seen[seg] = true
			if !l.IsDownset(base | seg) {
				t.Errorf("base|seg %b is not a downset", base|seg)
			}
			if seg&(1<<uint(added)) == 0 {
				t.Errorf("added task %d not in segment %b", added, seg)
			}
			return true
		})
		// Cross-check the count: downsets above base = downsets of the
		// remaining poset; count them independently.
		var want int
		l.EachDownset(func(d uint64) bool {
			if d&base == base && d != base {
				want++
			}
			return true
		})
		if len(seen) != want {
			t.Errorf("base %b: %d segments, want %d", base, len(seen), want)
		}
	}
}

// TestLatticeEachDownsetPrune checks that returning false skips exactly
// the subtree below the current downset while siblings survive.
func TestLatticeEachDownsetPrune(t *testing.T) {
	ind, err := Independent(5, DefaultWeights(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	l := latticeOf(t, ind)
	var visited int
	l.EachDownset(func(d uint64) bool {
		visited++
		return bits.OnesCount64(d) < 2 // prune below level 2
	})
	// ∅, 5 singletons, C(5,2)=10 pairs — nothing deeper.
	if visited != 1+5+10 {
		t.Errorf("pruned enumeration visited %d downsets, want 16", visited)
	}
}

// TestCountLinearExtensions pins the lattice count against the
// streaming enumeration on shapes small enough to stream.
func TestCountLinearExtensions(t *testing.T) {
	graphs := map[string]*Graph{"diamond": buildDiamond(t)}
	if g, err := ForkJoin(3, 2, DefaultWeights(), rng.New(4)); err == nil {
		graphs["forkjoin"] = g
	}
	if g, err := IntreeFromChains(3, 2, DefaultWeights(), rng.New(5)); err == nil {
		graphs["intree"] = g
	}
	if g, err := GNP(8, 0.25, DefaultWeights(), rng.New(6)); err == nil {
		graphs["gnp"] = g
	}
	if g, err := Chain(9, DefaultWeights(), rng.New(7)); err == nil {
		graphs["chain"] = g
	}
	for name, g := range graphs {
		l := latticeOf(t, g)
		want := g.CountTopologicalOrders(0)
		if got := l.CountLinearExtensions(); got != float64(want) {
			t.Errorf("%s: CountLinearExtensions = %v, streamed count = %d", name, got, want)
		}
	}
}

func TestLatticeLimits(t *testing.T) {
	if _, err := New().Lattice(); err == nil {
		t.Error("empty graph should have no lattice")
	}
	big, err := Independent(65, DefaultWeights(), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Lattice(); err == nil {
		t.Error("65-task graph should exceed the lattice cap")
	}
	cyc := New()
	a := cyc.MustAddTask(Task{Weight: 1})
	b := cyc.MustAddTask(Task{Weight: 1})
	cyc.MustAddEdge(a, b)
	cyc.MustAddEdge(b, a)
	if _, err := cyc.Lattice(); err == nil {
		t.Error("cyclic graph should have no lattice")
	}
}

// TestEachTopologicalOrderStreams pins the streaming enumerator against
// the materializing wrapper, the limit semantics, and early stop.
func TestEachTopologicalOrderStreams(t *testing.T) {
	g, err := ForkJoin(2, 2, DefaultWeights(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	want := g.AllTopologicalOrders(0)
	var streamed [][]int
	g.EachTopologicalOrder(0, func(order []int) bool {
		streamed = append(streamed, append([]int(nil), order...))
		return true
	})
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d orders, materialized %d", len(streamed), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if streamed[i][j] != want[i][j] {
				t.Fatalf("order %d differs: %v vs %v", i, streamed[i], want[i])
			}
		}
	}
	if got := g.CountTopologicalOrders(0); got != int64(len(want)) {
		t.Errorf("CountTopologicalOrders = %d, want %d", got, len(want))
	}
	if got := g.CountTopologicalOrders(3); got != 3 {
		t.Errorf("limited count = %d, want 3", got)
	}
	var calls int
	g.EachTopologicalOrder(0, func([]int) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("early stop after %d calls, want 2", calls)
	}
}

// TestEachTopologicalOrderAllocs is the streaming-enumerator allocation
// contract: enumerating every order of a graph with thousands of
// linearizations allocates O(n) scratch — a handful of slices — not
// O(#orders·n) as the materializing path does.
func TestEachTopologicalOrderAllocs(t *testing.T) {
	ind, err := Independent(7, DefaultWeights(), rng.New(10)) // 5040 orders
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	allocs := testing.AllocsPerRun(10, func() {
		count = 0
		ind.EachTopologicalOrder(0, func([]int) bool { count++; return true })
	})
	if count != 5040 {
		t.Fatalf("enumerated %d orders, want 5040", count)
	}
	if allocs > 10 {
		t.Errorf("streaming enumeration allocated %.0f objects per full run, want ≤ 10", allocs)
	}
}

// IsDownset reports whether s is closed under predecessors.
func (l *Lattice) IsDownset(s uint64) bool {
	for rest := s; rest != 0; rest &= rest - 1 {
		t := bits.TrailingZeros64(rest)
		if l.pred[t]&^s != 0 {
			return false
		}
	}
	return true
}

// Ready returns the tasks that can extend the downset d: tasks outside
// d whose predecessors are all inside it.
func (l *Lattice) Ready(d uint64) uint64 {
	var out uint64
	for rest := l.Full() &^ d; rest != 0; rest &= rest - 1 {
		t := bits.TrailingZeros64(rest)
		if l.pred[t]&^d == 0 {
			out |= 1 << uint(t)
		}
	}
	return out
}

// EachSegment enumerates every nonempty segment T that extends the
// downset from: sets T disjoint from `from` with from ∪ T a downset.
// fn receives the segment and the task just added; returning false
// prunes every superset of that segment reached through it (the
// depth-first subtree), while siblings are still visited. Segments are
// duplicate-free for the same reason as EachDownset.
func (l *Lattice) EachSegment(from uint64, fn func(seg uint64, added int) bool) {
	l.eachExtension(from, 0, func(d uint64, added int) bool { return fn(d&^from, added) })
}

// CountDownsets returns the number of downsets of the graph (including
// ∅ and V) — the state-space size of the exact lattice DP, against the
// n! upper bound of order enumeration.
func (l *Lattice) CountDownsets() int64 {
	var count int64
	l.EachDownset(func(uint64) bool { count++; return true })
	return count
}
