package exec

import (
	"fmt"
	"math/bits"
)

// DegradeLevel is the executor's position on the degradation ladder.
// Levels move down within a run; the single path back up is the
// ride-out probe (AdaptiveOptions.ProbeEvery): a store that went
// effectively down can be re-admitted at LevelDegraded when a probe
// save succeeds — partitions heal — but never re-earns LevelHealthy or
// an undone failover within the run.
type DegradeLevel uint8

const (
	// LevelHealthy: the store behaves close to the plan's assumptions.
	LevelHealthy DegradeLevel = iota
	// LevelDegraded: observed save cost drifted enough that at least one
	// replan re-solved the remaining plan with the effective cost.
	LevelDegraded
	// LevelFailover: the primary store gave up too often; checkpoints go
	// to the secondary store.
	LevelFailover
	// LevelDown: no store accepts saves; execution continues
	// checkpoint-free (in-model checkpoints still bound failure
	// rollback, but a crash now rewinds to the last PERSISTED
	// checkpoint — the growing exposure is tracked as MaxRewind).
	LevelDown
)

// String names the level.
func (l DegradeLevel) String() string {
	switch l {
	case LevelHealthy:
		return "healthy"
	case LevelDegraded:
		return "degraded"
	case LevelFailover:
		return "failover"
	case LevelDown:
		return "down"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// StoreHealth is the deterministic store-health observer: an EWMA of
// per-commit save latency, an EWMA of per-commit retry overhead
// (backoff delays plus latency burned on failed attempts), and a
// rolling window of per-attempt outcomes for a failure rate. All inputs
// are virtual-time quantities read from the deterministic store stack,
// and every field round-trips bit-exactly through the checkpoint
// payload, so a resumed run's health — and therefore its replan
// decisions — is identical to the uninterrupted run's.
type StoreHealth struct {
	commits  uint64 // commits observed (first one seeds the EWMAs)
	ewmaLat  float64
	ewmaOver float64
	bits     uint64 // rolling per-attempt outcomes, bit 0 = most recent
	nbits    int
	attempts uint64
	failures uint64
}

// Store-health constants: the EWMA weight, and the failure-rate window
// in attempts (at most 64, the width of the bit window).
const (
	healthAlpha  = 0.25
	healthWindow = 16
)

// ObserveAttempt records one save attempt's outcome in the failure
// window.
func (h *StoreHealth) ObserveAttempt(failed bool) {
	h.attempts++
	h.bits <<= 1
	if failed {
		h.failures++
		h.bits |= 1
	}
	if h.nbits < healthWindow {
		h.nbits++
	}
	h.bits &= 1<<healthWindow - 1
}

// ObserveCommit folds one commit's outcome into the EWMAs: successLat
// is the injected latency of the successful attempt (0 on give-up),
// retryOverhead is everything else the commit burned (failed-attempt
// latency plus backoff delays).
func (h *StoreHealth) ObserveCommit(successLat, retryOverhead float64) {
	if h.commits == 0 {
		h.ewmaLat = successLat
		h.ewmaOver = retryOverhead
	} else {
		h.ewmaLat += healthAlpha * (successLat - h.ewmaLat)
		h.ewmaOver += healthAlpha * (retryOverhead - h.ewmaOver)
	}
	h.commits++
}

// EwmaLatency returns the smoothed per-commit successful-save latency.
func (h *StoreHealth) EwmaLatency() float64 { return h.ewmaLat }

// EwmaOverhead returns the smoothed per-commit retry overhead.
func (h *StoreHealth) EwmaOverhead() float64 { return h.ewmaOver }

// OverheadEstimate is the expected EXTRA cost of the next checkpoint
// beyond its planned C: smoothed latency plus smoothed retry overhead.
// This is the C_eff − C term replan decisions use.
func (h *StoreHealth) OverheadEstimate() float64 { return h.ewmaLat + h.ewmaOver }

// FailureRate returns the fraction of failed attempts in the window
// (0 before any attempt).
func (h *StoreHealth) FailureRate() float64 {
	if h.nbits == 0 {
		return 0
	}
	return float64(bits.OnesCount64(h.bits)) / float64(h.nbits)
}

// Attempts and Failures return lifetime counters; Commits the number of
// committed observations.
func (h *StoreHealth) Attempts() uint64 { return h.attempts }

// Failures returns the lifetime failed-attempt count.
func (h *StoreHealth) Failures() uint64 { return h.failures }

// Commits returns the number of ObserveCommit calls.
func (h *StoreHealth) Commits() uint64 { return h.commits }
