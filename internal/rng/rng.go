// Package rng provides deterministic, splittable random-number streams for
// reproducible experiments. Every simulation and workload generator in this
// repository takes an explicit *rng.Stream; nothing reads global state, so
// any experiment re-runs bit-identically from its seed.
package rng

import (
	"math/rand/v2"
)

// Stream is a deterministic pseudo-random stream (PCG) with convenience
// samplers. It is not safe for concurrent use; use Split to derive
// independent per-goroutine streams.
//
// A Stream holds its generator by value and points into itself, so one
// stream is one heap object. Always use it through the *Stream the
// constructors return, or through a pointer to a Stream held in a heap
// object and initialized by Rekey: a copy made by value would keep
// drawing from the original's generator until it is rekeyed.
type Stream struct {
	pcg rand.PCG
	r   rand.Rand // sources pcg
	// seed material kept for Split derivation
	hi, lo uint64
	splits uint64
}

// newLo is the low seed word of New; Derive starts from the same pair.
const newLo = 0x9e3779b97f4a7c15

// New returns a stream seeded from seed. Two streams with the same seed
// produce identical sequences.
func New(seed uint64) *Stream {
	return newFrom(seed, newLo)
}

func newFrom(hi, lo uint64) *Stream {
	s := new(Stream)
	s.init(hi, lo)
	return s
}

// init (re)seeds s in place from the seed material (hi, lo). rand.Rand
// holds nothing but its source, so this leaves s exactly as newFrom
// builds a fresh stream.
func (s *Stream) init(hi, lo uint64) {
	*s = Stream{hi: hi, lo: lo}
	s.pcg.Seed(hi, lo)
	s.r = *rand.New(&s.pcg)
}

// Split derives a new stream that is statistically independent of s and of
// every other stream split from s. Splitting advances only the split
// counter, not s's own sequence, so adding workers does not perturb the
// parent stream.
func (s *Stream) Split() *Stream {
	s.splits++
	return newFrom(mix(s.hi, s.splits), mix(s.lo, s.splits+0x632be59bd9b4e019))
}

// Keyed derives the child stream identified by key. Unlike Split it does
// not consume the split counter (or any other state), so the result
// depends only on s's seed material and the key: every caller that holds
// a stream with the same seed gets the same child for the same key,
// regardless of how much the parent has been drawn from or split. This
// is the primitive behind the experiment engine's determinism contract —
// row jobs executed in any order, on any number of workers, reproduce
// the serial run bit-for-bit because each job's stream is keyed, not
// sequenced. Keyed children use salt constants disjoint from Split's, so
// Keyed(k) never collides with the k-th Split child.
func (s *Stream) Keyed(key uint64) *Stream {
	return newFrom(keyed(s.hi, s.lo, key))
}

// Derive returns the stream New(seed).Keyed(keys[0])…Keyed(keys[n-1]),
// bit for bit, without building the intermediate streams: it folds the
// key chain through Keyed's seed arithmetic and allocates only the
// final stream. Hot paths that key a draw by several coordinates (a
// message's endpoints and identity, a store operation's run, seq and
// attempt) use it instead of chaining Keyed.
func Derive(seed uint64, keys ...uint64) *Stream {
	return newFrom(derive(seed, keys))
}

// Rekey reseeds s in place as the stream Derive(seed, keys...) returns,
// bit for bit, and allocates nothing: every later draw, Split and Keyed
// of s matches that stream's. Hot paths that draw one keyed operation
// at a time hold one Stream and rekey it per operation instead of
// deriving a fresh one. A zero Stream becomes usable once rekeyed.
func (s *Stream) Rekey(seed uint64, keys ...uint64) {
	s.init(derive(seed, keys))
}

// derive folds the key chain of Derive(seed, keys...) into its seed
// material.
func derive(seed uint64, keys []uint64) (hi, lo uint64) {
	hi, lo = seed, newLo
	for _, k := range keys {
		hi, lo = keyed(hi, lo, k)
	}
	return hi, lo
}

// keyed maps seed material (hi, lo) to that of its child under key.
func keyed(hi, lo, key uint64) (uint64, uint64) {
	return mix(hi, key^0xd6e8feb86659fd93), mix(lo, key+0x8a91a6d40bf42040)
}

// HashString returns the 64-bit FNV-1a hash of s, equal to hash/fnv's
// New64a over []byte(s) but without allocating. It folds names and run
// IDs into key material for Derive and Keyed.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix is the SplitMix64 finalizer, a strong 64-bit mixer.
func mix(z, salt uint64) uint64 {
	z += salt * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// IntN returns a uniform value in [0, n). n must be positive.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// NormFloat64 returns a standard-normal variate.
func (s *Stream) NormFloat64() float64 { return s.r.NormFloat64() }

// ExpFloat64 returns a rate-1 exponential variate.
func (s *Stream) ExpFloat64() float64 { return s.r.ExpFloat64() }

// Range returns a uniform value in [lo, hi).
func (s *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a uniform random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
