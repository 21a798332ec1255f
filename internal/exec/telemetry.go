// Plan-time telemetry: probing a store stack for its realized
// per-operation overhead BEFORE an execution starts, so the planner can
// re-solve with an effective checkpoint cost C + overhead instead of
// the configured C. This closes the feedback loop that online
// replanning only closes mid-run: ProbeStore feeds the same StoreHealth
// EWMA the executor maintains, and the estimate plugs directly into
// Replanner.Replan(0, overhead) — a whole-plan re-solve under effective
// costs (see repro.OptimalChainPlanTelemetry and cmd/chkptexec's
// -plan-from-telemetry).
package exec

import (
	"fmt"

	"repro/internal/store"
)

// ProbeResult is what ProbeStore measured.
type ProbeResult struct {
	// Estimate is the store-health EWMA estimate of per-operation
	// overhead after the probes — successful probes contribute their
	// exact virtual latency, failed ones their full cost (e.g. the
	// remote timeout), so a store behind a partition probes expensive,
	// not free.
	Estimate float64
	// Samples is the number of probe saves issued, Failures how many
	// of them errored.
	Samples  int
	Failures int
	// Tracked reports whether the stack exposes per-op virtual latency
	// (store.Measure). When false the estimate is necessarily zero and
	// telemetry-fed planning degenerates to the naive plan.
	Tracked bool
}

// probePayloadSize is the size of each ProbeStore payload in bytes.
const probePayloadSize = 4096

// ProbeStore measures the effective per-operation overhead of a store
// stack by issuing samples probe saves (32 when samples ≤ 0) of a
// 4 KiB payload under the given run ID and folding each probe's exact
// virtual latency (store.Measure) into a fresh StoreHealth EWMA with
// the executor's default weight. Probe checkpoints are deleted
// afterwards (best effort). Use a dedicated run ID: probes share the
// stack's logically-keyed fault and network streams, so a run ID
// disjoint from real runs leaves their outcomes untouched.
func ProbeStore(st store.Store, run string, samples int) ProbeResult {
	if samples <= 0 {
		samples = 32
	}
	payload := make([]byte, probePayloadSize)
	health := newStoreHealth()
	res := ProbeResult{Samples: samples}
	for i := 1; i <= samples; i++ {
		seq := uint64(i)
		lat, tracked, err := store.Measure(st, run, func() error { return st.Save(run, seq, payload) })
		res.Tracked = tracked
		health.ObserveAttempt(err != nil)
		if err == nil {
			health.ObserveCommit(lat, 0)
		} else {
			res.Failures++
			health.ObserveCommit(0, lat)
		}
	}
	for i := 1; i <= samples; i++ {
		_ = st.Delete(run, uint64(i))
	}
	res.Estimate = health.OverheadEstimate()
	return res
}

// String summarizes the probe for CLI output.
func (r ProbeResult) String() string {
	return fmt.Sprintf("probe: %d samples, %d failures, overhead estimate %.6g (latency tracked: %v)",
		r.Samples, r.Failures, r.Estimate, r.Tracked)
}
