package attempt

import "testing"

// TestCounterMatchesMap: the dense tables and the spill map together
// count exactly what one map keyed by (kind, seq) counts, on both sides
// of the dense cap and for kinds past the dense range.
func TestCounterMatchesMap(t *testing.T) {
	var c Counter
	oracle := map[[2]uint64]uint64{}
	seqs := []uint64{0, 1, 2, 15, 16, 17, 1000, DenseCap - 1, DenseCap, DenseCap + 1, 1 << 40, 1<<64 - 1}
	for round := 0; round < 3; round++ {
		for _, kind := range []uint64{0, 1, 4, denseKinds - 1, denseKinds, 1<<64 - 1} {
			for i := range seqs {
				// Visit seqs in a different order each round, so
				// tables grow from both small and large first indices.
				seq := seqs[(i*(round+5))%len(seqs)]
				k := [2]uint64{kind, seq}
				oracle[k]++
				if got := c.Next(kind, seq); got != oracle[k] {
					t.Fatalf("round %d: Next(%d, %d) = %d, want %d", round, kind, seq, got, oracle[k])
				}
			}
		}
	}
	for kind, tab := range c.dense {
		if len(tab) > DenseCap {
			t.Errorf("kind %d: dense table of %d entries, cap %d", kind, len(tab), DenseCap)
		}
	}
}

// TestCounterNextAllocs: counting an operation already in a table
// allocates nothing.
func TestCounterNextAllocs(t *testing.T) {
	var c Counter
	c.Next(1, 100)
	if n := testing.AllocsPerRun(100, func() { c.Next(1, 7) }); n != 0 {
		t.Errorf("Next: %v allocs, want 0", n)
	}
}
