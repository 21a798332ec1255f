package exec

import (
	"hash/fnv"
	"math"

	"repro/internal/failure"
	"repro/internal/rng"
)

// Source is the failure process the executor runs against: a
// failure.Process whose position is capturable and restorable, so an
// execution checkpoint can pin "which failure gap we are in and how much
// of it is consumed" and a resumed run continues the exact same
// stochastic trajectory. Fingerprint identifies the source's seed
// material; the executor stores it (mixed with the workload fingerprint)
// in every checkpoint and refuses to resume against a different source.
type Source interface {
	failure.Process
	// State captures the source's position.
	State() SourceState
	// Restore repositions the source. Restore(State()) is a no-op;
	// restoring a state captured earlier rewinds deterministically.
	Restore(SourceState)
	// Fingerprint identifies the source's identity (kind, distribution,
	// seed material) — NOT its position.
	Fingerprint() uint64
}

// SourceState is a source's position: how many gaps have been fully
// consumed (= failures observed or gaps advanced through) and how much
// of the current gap has elapsed.
type SourceState struct {
	// Draws counts completed gaps.
	Draws uint64
	// Consumed is the elapsed part of the current gap.
	Consumed float64
}

// KeyedSource is the executor's default failure source: gap i is drawn
// from the stateless keyed stream rng.New(seed).Keyed(salt).Keyed(i+1),
// which the source's one held stream is rekeyed to per gap, so the
// i-th inter-failure gap depends only on (seed, salt, i) — never on how
// the executor got there. That position-indexed determinism is what
// makes rewind/replay exact: a resumed run restored to (draws,
// consumed) sees the same remaining failure sequence the uninterrupted
// run saw, with no stream state to reconstruct.
//
// Semantics mirror failure.ExponentialProcess: Advance consumes the
// announced gap and redraws a fresh one when the residual hits zero
// (for the memoryless Exponential law the two are distributionally
// identical; for other laws this source models gaps that restart at
// renewal points, same as the platform-level process abstraction).
type KeyedSource struct {
	dist       failure.Distribution
	seed, salt uint64
	draws      uint64
	consumed   float64
	gap        float64
	s          rng.Stream // rekeyed for every gap
}

// NewKeyedSource returns a keyed source over dist. salt distinguishes
// independent runs under one seed (campaigns key it by run index).
func NewKeyedSource(dist failure.Distribution, seed, salt uint64) *KeyedSource {
	k := &KeyedSource{dist: dist, seed: seed, salt: salt}
	k.gap = k.gapAt(0)
	return k
}

// gapAt draws gap i from its private keyed stream.
func (k *KeyedSource) gapAt(i uint64) float64 {
	k.s.Rekey(k.seed, k.salt, i+1)
	return k.dist.Sample(&k.s)
}

// NextFailure returns the residual of the current gap.
func (k *KeyedSource) NextFailure() float64 { return k.gap - k.consumed }

// ObserveFailure moves to the next gap.
func (k *KeyedSource) ObserveFailure() {
	k.draws++
	k.consumed = 0
	k.gap = k.gapAt(k.draws)
}

// Advance consumes dt of the current gap, moving to the next gap when
// the residual reaches zero (failure.ExponentialProcess semantics).
func (k *KeyedSource) Advance(dt float64) {
	k.consumed += dt
	if k.consumed >= k.gap {
		k.draws++
		k.consumed = 0
		k.gap = k.gapAt(k.draws)
	}
}

// Rate returns λ for Exponential laws and 0 otherwise.
func (k *KeyedSource) Rate() float64 {
	if e, ok := k.dist.(failure.Exponential); ok {
		return e.Lambda
	}
	return 0
}

// Reset rewinds to gap zero.
func (k *KeyedSource) Reset() {
	k.draws = 0
	k.consumed = 0
	k.gap = k.gapAt(0)
}

// State captures the position.
func (k *KeyedSource) State() SourceState {
	return SourceState{Draws: k.draws, Consumed: k.consumed}
}

// Restore repositions the source.
func (k *KeyedSource) Restore(st SourceState) {
	k.draws = st.Draws
	k.consumed = st.Consumed
	k.gap = k.gapAt(k.draws)
}

// Fingerprint hashes (kind, distribution, seed, salt).
func (k *KeyedSource) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte("keyed:"))
	h.Write([]byte(k.dist.String()))
	var b [16]byte
	putU64(b[:8], k.seed)
	putU64(b[8:], k.salt)
	h.Write(b[:])
	return h.Sum64()
}

// TraceSource replays a fixed recorded gap sequence — the executor's
// trace-replay mode. Past the end of the recording it announces an
// infinite gap (no further failures) and sets the exhausted flag, which
// callers must check: an exhausted replay means the recording was
// shorter than the execution that consumed it, so the failure-free tail
// is an artifact of the trace, not of the platform.
//
// Advance mirrors failure.TraceCursor: it consumes the current gap and
// clamps — it never skips to the next gap, so a fully consumed gap
// yields an immediate failure on the next attempt, exactly as a cursor
// replay in sim.Run does. That is what makes executor trace replays
// failure-for-failure identical to simulator replays of the same gaps.
type TraceSource struct {
	gaps      []float64
	rate      float64
	idx       uint64
	consumed  float64
	exhausted bool
}

// NewTraceSource replays gaps; rate is the nominal platform rate for
// Rate() (0 when unknown).
func NewTraceSource(gaps []float64, rate float64) *TraceSource {
	return &TraceSource{gaps: gaps, rate: rate}
}

// NextFailure returns the residual of the current gap, or +Inf past the
// end of the recording.
func (t *TraceSource) NextFailure() float64 {
	if t.idx >= uint64(len(t.gaps)) {
		t.exhausted = true
		return math.Inf(1)
	}
	rem := t.gaps[t.idx] - t.consumed
	if rem < 0 {
		return 0
	}
	return rem
}

// ObserveFailure moves to the next recorded gap.
func (t *TraceSource) ObserveFailure() {
	t.idx++
	t.consumed = 0
}

// Advance consumes dt of the current gap without ever skipping gaps
// (TraceCursor semantics; see the type comment).
func (t *TraceSource) Advance(dt float64) { t.consumed += dt }

// Rate returns the nominal rate.
func (t *TraceSource) Rate() float64 { return t.rate }

// Exhausted reports whether the execution asked for gaps beyond the
// recording.
func (t *TraceSource) Exhausted() bool { return t.exhausted }

// Reset rewinds to the first gap.
func (t *TraceSource) Reset() {
	t.idx = 0
	t.consumed = 0
	t.exhausted = false
}

// State captures the position.
func (t *TraceSource) State() SourceState {
	return SourceState{Draws: t.idx, Consumed: t.consumed}
}

// Restore repositions the replay.
func (t *TraceSource) Restore(st SourceState) {
	t.idx = st.Draws
	t.consumed = st.Consumed
	t.exhausted = false
}

// Fingerprint hashes the recorded gaps and rate.
func (t *TraceSource) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte("trace:"))
	var b [8]byte
	putU64(b[:], uint64(len(t.gaps)))
	h.Write(b[:])
	for _, g := range t.gaps {
		putU64(b[:], math.Float64bits(g))
		h.Write(b[:])
	}
	putU64(b[:], math.Float64bits(t.rate))
	h.Write(b[:])
	return h.Sum64()
}

var (
	_ Source             = (*KeyedSource)(nil)
	_ Source             = (*TraceSource)(nil)
	_ failure.Resettable = (*KeyedSource)(nil)
	_ failure.Resettable = (*TraceSource)(nil)
)

// putU64 writes v little-endian into b[:8].
func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
