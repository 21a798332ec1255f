package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds coincide too often: %d/100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other.
	diff := false
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("split children produced identical sequences")
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split() // splitting must not consume parent's sequence
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split perturbed the parent stream")
		}
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(11).Split()
	b := New(11).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// TestSplitIndependentOfParentDrawOrder is the engine's prerequisite:
// the k-th Split child depends only on the parent's seed material and
// the split counter, never on how much the parent (or other children)
// has been drawn from. Without this property, parallel workers drawing
// from sibling streams would perturb each other's sequences.
func TestSplitIndependentOfParentDrawOrder(t *testing.T) {
	fresh := New(21)
	drawn := New(21)
	for i := 0; i < 1000; i++ {
		drawn.Uint64() // exercise the parent before splitting
	}
	c1 := fresh.Split()
	c2 := drawn.Split()
	for i := 0; i < 1000; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split child diverged at step %d: parent draws leaked into the child", i)
		}
	}
	// Drawing from one child must not perturb a sibling either.
	s1, s2 := New(22), New(22)
	a1 := s1.Split()
	for i := 0; i < 500; i++ {
		a1.Uint64()
	}
	b1 := s1.Split()
	_ = s2.Split()
	b2 := s2.Split()
	for i := 0; i < 1000; i++ {
		if b1.Uint64() != b2.Uint64() {
			t.Fatalf("sibling draws perturbed the next split child at step %d", i)
		}
	}
}

func TestKeyedReproducible(t *testing.T) {
	a := New(31).Keyed(12345)
	b := New(31).Keyed(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Keyed is not deterministic")
		}
	}
}

// TestKeyedIndependentOfHistory: Keyed children ignore both draw and
// split history of the parent — they are a pure function of (seed, key).
func TestKeyedIndependentOfHistory(t *testing.T) {
	fresh := New(33)
	used := New(33)
	for i := 0; i < 100; i++ {
		used.Uint64()
		used.Split()
	}
	a := fresh.Keyed(7)
	b := used.Keyed(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Keyed child depends on parent history (step %d)", i)
		}
	}
}

func TestKeyedDistinct(t *testing.T) {
	parent := New(35)
	seen := map[uint64]uint64{}
	for key := uint64(0); key < 200; key++ {
		v := parent.Keyed(key).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("keys %d and %d collide on first draw", prev, key)
		}
		seen[v] = key
	}
	// Keyed children are also disjoint from Split children with small
	// counters (the salts are deliberately different).
	split1 := New(35).Split().Uint64()
	if k1 := New(35).Keyed(1).Uint64(); k1 == split1 {
		t.Error("Keyed(1) collides with the first Split child")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("ExpFloat64 mean = %v, want ≈ 1", mean)
	}
}

func TestRange(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 7)
		if v < 5 || v >= 7 {
			t.Fatalf("Range out of [5,7): %v", v)
		}
	}
}

func TestPerm(t *testing.T) {
	s := New(13)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestIntN(t *testing.T) {
	s := New(17)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.IntN(4)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("IntN bucket %d count %d far from uniform", i, c)
		}
	}
}

// TestDeriveEqualsKeyedChain: Derive(seed, ks...) is the chained
// New(seed).Keyed(k1)…Keyed(kn), draw for draw, under every sampler and
// for its Split children too.
func TestDeriveEqualsKeyedChain(t *testing.T) {
	gen := New(2024)
	for trial := 0; trial < 200; trial++ {
		seed := gen.Uint64()
		keys := make([]uint64, trial%9)
		for i := range keys {
			keys[i] = gen.Uint64() >> uint(gen.IntN(64))
		}
		want := New(seed)
		for _, k := range keys {
			want = want.Keyed(k)
		}
		got := Derive(seed, keys...)
		for i := 0; i < 8; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %#x keys %v: Uint64 #%d = %#x, chained Keyed gives %#x", seed, keys, i, g, w)
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %#x keys %v: Float64 #%d = %v, want %v", seed, keys, i, g, w)
			}
			if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
				t.Fatalf("seed %#x keys %v: ExpFloat64 #%d = %v, want %v", seed, keys, i, g, w)
			}
			if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
				t.Fatalf("seed %#x keys %v: NormFloat64 #%d = %v, want %v", seed, keys, i, g, w)
			}
			if w, g := want.IntN(1+i*97), got.IntN(1+i*97); w != g {
				t.Fatalf("seed %#x keys %v: IntN #%d = %d, want %d", seed, keys, i, g, w)
			}
		}
		if w, g := fmt.Sprint(want.Perm(12)), fmt.Sprint(got.Perm(12)); w != g {
			t.Fatalf("seed %#x keys %v: Perm = %s, want %s", seed, keys, g, w)
		}
		if w, g := want.Split().Uint64(), got.Split().Uint64(); w != g {
			t.Fatalf("seed %#x keys %v: Split child draws %#x, want %#x", seed, keys, g, w)
		}
	}
}

// TestGoldenDraws pins the first draws of the three stream
// constructors, so a change to Stream's internals that moves a draw
// fails here before it moves any experiment fingerprint.
func TestGoldenDraws(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *Stream
		want [3]uint64
	}{
		{"New(1)", New(1), [3]uint64{0xee4200f3880a19eb, 0xbaadcc279ed76e43, 0xe6e217b961fee78d}},
		{"New(1).Keyed(7)", New(1).Keyed(7), [3]uint64{0x72a2aba6c8258725, 0x8b6098fd9599385f, 0x2c8118e55eda71b8}},
		{"New(1).Split()", New(1).Split(), [3]uint64{0xbfd41ab5e12b49b0, 0xb227d44f4f12f69b, 0x785e23bbf81ac23d}},
	} {
		for i, w := range c.want {
			if g := c.s.Uint64(); g != w {
				t.Errorf("%s: Uint64 #%d = %#x, want %#x", c.name, i, g, w)
			}
		}
	}
	s := New(1).Keyed(7)
	got := fmt.Sprintf("%v %v %v %d %v", s.Float64(), s.ExpFloat64(), s.NormFloat64(), s.IntN(1000), s.Perm(5))
	if want := "0.08345355120784304 3.7857647725560675 1.5733535894703419 299 [1 0 3 2 4]"; got != want {
		t.Errorf("New(1).Keyed(7) samplers = %q, want %q", got, want)
	}
}

func TestHashStringMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "exec", "run-0042", "s2", "héllo\x00wörld", strings.Repeat("xyz", 100)} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := HashString(s), h.Sum64(); got != want {
			t.Errorf("HashString(%q) = %#x, fnv.New64a gives %#x", s, got, want)
		}
	}
}

// TestDeriveAllocs: a derived stream is one heap object however long
// its key chain, and hashing a key allocates nothing.
func TestDeriveAllocs(t *testing.T) {
	var sink *Stream
	if n := testing.AllocsPerRun(100, func() { sink = Derive(1, 2, 3, 4, 5, 6, 7) }); n != 1 {
		t.Errorf("Derive with 6 keys: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = New(1) }); n != 1 {
		t.Errorf("New: %v allocs, want 1", n)
	}
	_ = sink
	var h uint64
	if n := testing.AllocsPerRun(100, func() { h += HashString("run-0042") }); n != 0 {
		t.Errorf("HashString: %v allocs, want 0", n)
	}
}

// TestRekeyMatchesDerive: rekeying one stream, whatever it drew or
// split before, reproduces Derive's stream for every key chain of
// length 0–7, sampler by sampler, and allocates nothing.
func TestRekeyMatchesDerive(t *testing.T) {
	var s Stream // a zero Stream, usable once rekeyed
	keys := []uint64{3, 0, 1<<64 - 1, 42, 0x9e3779b97f4a7c15, 7, 1 << 63}
	for seed := uint64(0); seed < 3; seed++ {
		for n := 0; n <= len(keys); n++ {
			chain := keys[:n]
			want, got := Derive(seed, chain...), &s
			got.Rekey(seed, chain...)
			for i := 0; i < 16; i++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d, %d keys: Uint64 #%d = %#x, Derive gives %#x", seed, n, i, g, w)
				}
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d, %d keys: Float64 #%d = %v, Derive gives %v", seed, n, i, g, w)
				}
				if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
					t.Fatalf("seed %d, %d keys: ExpFloat64 #%d = %v, Derive gives %v", seed, n, i, g, w)
				}
				if w, g := want.IntN(1000+i), got.IntN(1000+i); w != g {
					t.Fatalf("seed %d, %d keys: IntN #%d = %d, Derive gives %d", seed, n, i, g, w)
				}
			}
			// Split and Keyed children derive from the rekeyed seed
			// material, not from what s held before.
			if w, g := want.Split().Uint64(), got.Split().Uint64(); w != g {
				t.Fatalf("seed %d, %d keys: Split child drew %#x, Derive's gives %#x", seed, n, g, w)
			}
			if w, g := want.Keyed(9).Uint64(), got.Keyed(9).Uint64(); w != g {
				t.Fatalf("seed %d, %d keys: Keyed child drew %#x, Derive's gives %#x", seed, n, g, w)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Rekey(1, 2, 3, 4, 5, 6, 7, 8) }); n != 0 {
		t.Errorf("Rekey with 7 keys: %v allocs, want 0", n)
	}
}
