package exec

import "fmt"

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
// per-commit save latency and an EWMA of per-commit retry overhead
// (backoff delays plus latency burned on failed attempts). Both inputs
// are virtual-time quantities read from the deterministic store stack,
// and every field round-trips bit-exactly through the checkpoint
// payload, so a resumed run's health — and therefore its replan
// decisions — is identical to the uninterrupted run's.
type StoreHealth struct {
	commits  uint64 // commits observed (first one seeds the EWMAs)
	ewmaLat  float64
	ewmaOver float64
}

// healthAlpha is the EWMA weight.
const healthAlpha = 0.25

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

// OverheadEstimate is the expected EXTRA cost of the next checkpoint
// beyond its planned C: smoothed latency plus smoothed retry overhead.
// This is the C_eff − C term replan decisions use.
func (h *StoreHealth) OverheadEstimate() float64 { return h.ewmaLat + h.ewmaOver }
