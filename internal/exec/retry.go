package exec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/store"
)

// ErrorClass partitions store errors by what retrying can achieve.
type ErrorClass uint8

const (
	// ClassTransient errors (injected write/read faults, unclassified
	// I/O hiccups) may succeed on retry.
	ClassTransient ErrorClass = iota
	// ClassPermanent errors (quota exhaustion, corrupt or missing
	// entries) cannot be fixed by retrying the identical operation; the
	// caller must degrade — fall back to an older checkpoint, replan,
	// fail over, or stop persisting.
	ClassPermanent
	// ClassFatal errors (fingerprint mismatch, malformed state payload)
	// mean the store holds state that is not this execution's; retrying
	// OR degrading would mask real damage, so the run must abort loudly.
	ClassFatal
)

// String names the class.
func (c ErrorClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassFatal:
		return "fatal"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassifyStoreError maps a store error to its class. Unknown errors
// classify transient: a real I/O hiccup deserves its retries, and the
// retry budget bounds the damage of misclassifying.
func ClassifyStoreError(err error) ErrorClass {
	switch {
	case errors.Is(err, ErrFingerprint) || errors.Is(err, errState):
		return ClassFatal
	case errors.Is(err, store.ErrFenced):
		// A higher-epoch lease fenced this write: another executor owns
		// the run now. Retrying or degrading would interleave two
		// writers' histories — the zombie must abort loudly.
		return ClassFatal
	case errors.Is(err, store.ErrLeaseExpired), errors.Is(err, store.ErrLeaseHeld):
		// The lease could not be confirmed (or is briefly held): nothing
		// proves a competing writer, so retrying re-validates — and a
		// renewal riding a healed partition succeeds.
		return ClassTransient
	case errors.Is(err, store.ErrTimeout):
		// A remote operation that missed its deadline — lost message,
		// partition window, or a slow link. Partitions heal: retry, back
		// off, ride the window out on the degradation ladder. A quorum
		// error whose representative cause is a timeout lands here too.
		return ClassTransient
	case errors.Is(err, store.ErrQuota),
		errors.Is(err, store.ErrCorrupt),
		errors.Is(err, store.ErrNotFound):
		return ClassPermanent
	default:
		return ClassTransient
	}
}

// ErrSaveExhausted wraps a transient store error that survived every
// allowed retry.
var ErrSaveExhausted = errors.New("exec: save retries exhausted")

// ErrSavePermanent wraps a permanent store error encountered while
// saving — retrying was not attempted because it cannot help.
var ErrSavePermanent = errors.New("exec: permanent store error")

// RetryPolicy decides, after each failed store attempt, whether to try
// again and how much virtual time to back off first. Policies must be
// deterministic (no jitter, no wall clock): backoff delays are folded
// into the executor's virtual clock and persisted accounting, so a
// replayed run must compute the identical delays.
type RetryPolicy interface {
	// Name identifies the policy in summaries and benchmarks.
	Name() string
	// Backoff is called after the attempt-th failure (1-based) with the
	// virtual-time overhead already spent on this operation (latency of
	// failed attempts plus earlier backoffs). It returns the delay to
	// serve before the next attempt and whether to retry at all.
	Backoff(attempt int, spent float64) (delay float64, retry bool)
}

// NoRetry gives up after the first failure.
type NoRetry struct{}

// Name identifies the policy.
func (NoRetry) Name() string { return "none" }

// Backoff never retries.
func (NoRetry) Backoff(int, float64) (float64, bool) { return 0, false }

// FixedRetry retries up to Attempts times with no backoff. Without
// Options.Adaptive the executor runs FixedRetry{SaveRetries} for both
// checkpoint saves and resume loads.
type FixedRetry struct {
	// Attempts is the number of RETRIES after the first failure.
	Attempts int
}

// Name identifies the policy.
func (p FixedRetry) Name() string { return fmt.Sprintf("fixed:%d", p.Attempts) }

// Backoff retries immediately while attempts remain.
func (p FixedRetry) Backoff(attempt int, _ float64) (float64, bool) {
	return 0, attempt <= p.Attempts
}

// ExpBackoff is capped exponential backoff in virtual time: retry k
// (1-based) waits min(Base·Factor^(k−1), Cap) before the next attempt,
// up to MaxAttempts retries. It is deliberately jitter-free:
// determinism outranks thundering-herd etiquette inside a replayable
// virtual clock.
type ExpBackoff struct {
	// Base is the first retry's delay (virtual time units).
	Base float64
	// Factor multiplies the delay each further retry (≤ 0 means 2).
	Factor float64
	// Cap bounds a single delay; 0 means uncapped.
	Cap float64
	// MaxAttempts bounds retries; 0 means 8.
	MaxAttempts int
}

// Name identifies the policy.
func (p ExpBackoff) Name() string { return "exp" }

// retries is the retry limit: MaxAttempts, or 8 when unset.
func (p ExpBackoff) retries() int {
	if p.MaxAttempts <= 0 {
		return 8
	}
	return p.MaxAttempts
}

// Backoff computes the capped exponential delay and the attempt limit.
func (p ExpBackoff) Backoff(attempt int, _ float64) (float64, bool) {
	if attempt > p.retries() {
		return 0, false
	}
	factor := p.Factor
	if factor <= 0 {
		factor = 2
	}
	delay := p.Base * math.Pow(factor, float64(attempt-1))
	if p.Cap > 0 && delay > p.Cap {
		delay = p.Cap
	}
	return delay, true
}

// ParseRetryPolicy resolves a policy spelling: none (or empty),
// fixed:<n>, or exp[:base[:factor[:cap[:max]]]] with base 0.5 by
// default. Every field must be finite and non-negative, with at most
// four exp fields, and a spelling whose delay overflows by its last
// retry is refused.
func ParseRetryPolicy(name string) (RetryPolicy, error) {
	switch {
	case name == "" || name == "none":
		return NoRetry{}, nil
	case strings.HasPrefix(name, "fixed:"):
		n, err := strconv.Atoi(name[len("fixed:"):])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad retry policy %q: want fixed:<positive n>", name)
		}
		return FixedRetry{Attempts: n}, nil
	case name == "exp" || strings.HasPrefix(name, "exp:"):
		pol := ExpBackoff{Base: 0.5}
		parts := strings.Split(name, ":")[1:]
		dst := []*float64{&pol.Base, &pol.Factor, &pol.Cap}
		if len(parts) > len(dst)+1 {
			return nil, fmt.Errorf("bad retry policy %q: at most 4 fields", name)
		}
		for i, part := range parts {
			if i == len(dst) {
				n, err := strconv.Atoi(part)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("bad retry policy %q: max attempts %q", name, part)
				}
				pol.MaxAttempts = n
				break
			}
			v, err := strconv.ParseFloat(part, 64)
			if err != nil || !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("bad retry policy %q: %q", name, part)
			}
			*dst[i] = v
		}
		// Base·Factor^(k−1) is monotone in k and Base is finite, so a
		// finite delay at the last retry bounds every earlier one.
		last := pol.retries()
		if d, _ := pol.Backoff(last, 0); math.IsInf(d, 0) || math.IsNaN(d) {
			return nil, fmt.Errorf("bad retry policy %q: delay overflows by retry %d", name, last)
		}
		return pol, nil
	}
	return nil, fmt.Errorf("unknown retry policy %q (want none | fixed:<n> | exp[:base[:factor[:cap[:max]]]])", name)
}

var (
	_ RetryPolicy = NoRetry{}
	_ RetryPolicy = FixedRetry{}
	_ RetryPolicy = ExpBackoff{}
)
