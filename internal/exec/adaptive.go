// Degraded-store resilience and the save path: the retry loop every
// commit runs under a RetryPolicy (commit in exec.go → persist → save),
// the outcome accounting adaptive mode adds — StoreHealth, online
// replanning with hysteresis, the degradation ladder (healthy →
// degraded → failover → down) — and restoring that state on resume.
//
// Determinism under adaptivity is the load-bearing design: every
// decision is a pure function of state that round-trips through the
// checkpoint payload. Store overhead is measured from the store
// stack's per-run latency ledger (store.Measure); replans are
// journaled as (frontier, overhead) pairs, and a resume re-solves the
// last of them through the pure Replanner; and the save outcomes of
// commit k — which happen AFTER payload k is encoded — are re-observed
// on resume by re-saving the restored payload through the same
// logically-keyed store stack, regenerating the post-encode journal
// events bit-for-bit. That is what keeps the crash-harness acceptance
// (kill anywhere, resume, byte-identical journal) true even while the
// executor is adapting to the store it is being killed on.
//
// A deliberate model choice: store overhead (injected latency and
// backoff delays) advances the virtual clock and therefore the realized
// makespan, but does NOT advance the failure source — checkpoint
// traffic stalls on a storage side channel, not on the compute platform
// whose failure process the plan models.
package exec

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/store"
)

// AdaptiveOptions enables the degraded-store resilience layer. The
// zero value of each field picks a sane default; the executor runs
// adaptively whenever Options.Adaptive is non-nil (which requires a
// configured Store). Fixed constants cover what is not configurable:
// the drift reference cost is the original plan's mean checkpoint cost,
// the store-health EWMA weight is 0.25 over a 16-attempt failure
// window, and failover to Secondary fires after 2 consecutive commit
// give-ups.
type AdaptiveOptions struct {
	// Retry drives the save retry loop (nil = NoRetry). Only transient
	// errors are retried; permanent errors (quota, corrupt) give up
	// immediately and feed the degradation ladder.
	Retry RetryPolicy
	// Replanner re-solves plan suffixes; nil disables replanning.
	Replanner Replanner
	// ReplanRatio is the hysteresis band edge: a replan triggers when
	// (C + overhead_now) / (C + overhead_at_last_plan) leaves
	// [1/ReplanRatio, ReplanRatio]. Values ≤ 1 disable replanning.
	ReplanRatio float64
	// Cooldown is the minimum number of commits between replans
	// (default 1).
	Cooldown int
	// Secondary, when non-nil, is the failover store (compose it with
	// Checked like the primary). It must persist as long as the primary:
	// resuming a run that failed over lists and loads from both. The
	// executor fails over after failoverAfter consecutive commit
	// give-ups; a permanent error fails over immediately.
	Secondary store.Store
	// DownAfter is the number of consecutive give-ups (on the last
	// store in the ladder) after which persistence is switched off
	// (default 4). A permanent error goes down immediately.
	DownAfter int
	// ProbeEvery, when positive, makes persistence-off survivable: at
	// LevelDown, every ProbeEvery-th commit attempts its save anyway
	// (the probe IS the save — no separate traffic). A successful
	// probe re-admits the active store at LevelDegraded, which is how
	// a minority-side executor rides out a partition window and
	// resumes committing once the network heals. Zero keeps the
	// legacy one-way ladder: down stays down for the rest of the run.
	ProbeEvery int
	// SyncEvery, when positive, runs an anti-entropy pass over the
	// active store after every SyncEvery-th committed segment (by
	// absolute segment index, so the cadence is resume-invariant) and
	// once more after completion — the executor's idle points. Each
	// pass calls the stack's RunSyncer (quorum SyncRun) to converge
	// replicas that missed writes during a partition, without waiting
	// for read traffic. Passes never journal, never advance the
	// virtual clock, and draw only attempt-keyed store randomness, so
	// kill/resume journal identity is untouched. Zero disables
	// executor-driven syncs; requires a stack with a RunSyncer to have
	// any effect.
	SyncEvery int
}

func (a *AdaptiveOptions) cooldown() int {
	if a.Cooldown <= 0 {
		return 1
	}
	return a.Cooldown
}

// failoverAfter is the number of consecutive commit give-ups that
// trigger failover to AdaptiveOptions.Secondary.
const failoverAfter = 2

func (a *AdaptiveOptions) downAfter() int {
	if a.DownAfter <= 0 {
		return 4
	}
	return a.DownAfter
}

// Save outcome codes packed into EvSaveResult's Arg (attempts<<3|code).
const (
	saveCodeOK        = 0
	saveCodeExhausted = 1
	saveCodePermanent = 2
	saveCodeSkipped   = 3
)

// encodeSaveArg packs a save outcome for the journal.
func encodeSaveArg(attempts, code int) int32 { return int32(attempts<<3 | code) }

// saveOutcome is what one commit's save loop produced.
type saveOutcome struct {
	attempts   int
	overhead   float64 // total measured latency + backoff delays
	successLat float64 // latency of the successful attempt (0 on give-up)
	ok         bool
	code       int
	err        error
}

// save runs the retry loop against the active store under the
// executor's retry policy, measuring each attempt's exact virtual
// latency (store.Measure) and adding the policy's backoff delays to the
// overhead. Fatal-class errors abort; permanent-class errors give up
// without retrying; transient errors retry per policy.
func (ex *executor) save(seq uint64, payload []byte) (saveOutcome, error) {
	run := ex.opts.runID()
	var out saveOutcome
	defer func() { ex.pending = 0 }()
	for attempt := 1; ; attempt++ {
		if ex.ad != nil {
			// Expose the overhead accrued so far through the bound
			// clock: this attempt's network delivery happens at t +
			// overhead, so backing off long enough walks the commit
			// past a partition window's end. Without Adaptive every
			// attempt happens at t.
			ex.pending = out.overhead
		}
		lat, _, err := ex.meter.Measure(func() error { return ex.store.Save(run, seq, payload) })
		out.overhead += lat
		out.attempts = attempt
		if err == nil {
			out.ok = true
			out.successLat = lat
			return out, nil
		}
		out.err = err
		switch ClassifyStoreError(err) {
		case ClassFatal:
			return out, fmt.Errorf("exec: saving checkpoint %d: %w", seq, err)
		case ClassPermanent:
			out.code = saveCodePermanent
			return out, nil
		}
		delay, retry := ex.retry.Backoff(attempt)
		if !retry {
			out.code = saveCodeExhausted
			return out, nil
		}
		out.overhead += delay
	}
}

// use makes s the active store and resolves the run's latency meter on
// it once, so the save loop measures without walking the stack.
func (ex *executor) use(s store.Store) {
	ex.store, ex.meter = s, store.NewMeter(s, ex.opts.runID())
}

// currentOverheadEstimate is the expected extra cost of the next
// checkpoint: the health estimate, or 0 once persistence is off.
func (ex *executor) currentOverheadEstimate() float64 {
	if ex.level == LevelDown {
		return 0
	}
	return ex.health.OverheadEstimate()
}

// noteExposure records the current crash-rewind exposure (virtual time
// since the last PERSISTED checkpoint).
func (ex *executor) noteExposure() {
	if exp := ex.t - ex.lastPersistT; exp > ex.maxRewind {
		ex.maxRewind = exp
	}
}

// persist is everything that happens to a checkpoint payload after it
// is encoded: skip (persistence off), or the save under the retry
// policy followed by outcome accounting. The adaptive resume path calls
// it with the restored payload to re-observe the same outcomes. Either
// way the payload encodes the journal as it stands on entry, and a
// successful save makes it the base of the next payload's chain.
func (ex *executor) persist(seq uint64, payload []byte) error {
	encoded := uint64(len(ex.j))
	if ex.level == LevelDown {
		// Ride-out probing: at LevelDown every ProbeEvery-th commit
		// attempts its save anyway; the others skip as before. The
		// counter round-trips through the checkpoint (it is captured
		// pre-mutation and re-applied by the resume re-save), so the
		// probe cadence replays bit-identically.
		probe := false
		if ex.ad.ProbeEvery > 0 {
			ex.sinceDown++
			if ex.sinceDown >= ex.ad.ProbeEvery {
				ex.sinceDown = 0
				probe = true
			}
		}
		if !probe {
			if err := ex.event(Event{Kind: EvSaveResult, Time: ex.t, Arg: encodeSaveArg(0, saveCodeSkipped), Seq: 0}); err != nil {
				return err
			}
			ex.noteExposure()
			return nil
		}
	}
	out, err := ex.save(seq, payload)
	if err != nil {
		return err
	}
	if ex.ad == nil {
		// The store is off the modeled timeline: nothing is journaled
		// or charged (E18 compares such runs against a store-less
		// reference journal), and a save that gives up ends the
		// invocation.
		if !out.ok {
			cause := ErrSaveExhausted
			if out.code == saveCodePermanent {
				cause = ErrSavePermanent
			}
			return fmt.Errorf("exec: saving checkpoint %d: %w: %w", seq, cause, out.err)
		}
		ex.base, ex.baseLen = seq, encoded
		return ex.countSave()
	}
	ex.t += out.overhead
	ex.met.StoreOverhead += out.overhead
	if err := ex.event(Event{Kind: EvSaveResult, Time: ex.t, Arg: encodeSaveArg(out.attempts, out.code), Seq: math.Float64bits(out.overhead)}); err != nil {
		return err
	}
	ex.health.ObserveCommit(out.successLat, out.overhead-out.successLat)
	ex.noteExposure()
	if out.ok {
		ex.base, ex.baseLen = seq, encoded
		ex.lastPersistT = ex.t
		ex.consec = 0
		if ex.level == LevelDown {
			// A successful ride-out probe re-admits the active store:
			// the window healed. Re-entry is to LevelDegraded, not
			// LevelHealthy — the store just spent a window down and
			// has yet to re-earn trust through the health EWMA.
			ex.level = LevelDegraded
			if err := ex.event(Event{Kind: EvDegrade, Time: ex.t, Arg: int32(ex.level)}); err != nil {
				return err
			}
		}
		return ex.countSave()
	}
	ex.giveups++
	ex.consec++
	return ex.escalate(out.code == saveCodePermanent)
}

// countSave counts a successful save and fires the save-count crash
// point.
func (ex *executor) countSave() error {
	ex.saves++
	if n := ex.opts.CrashAfterSaves; n > 0 && ex.saves >= n {
		return fmt.Errorf("exec: crash after %d checkpoint saves (t=%v): %w", ex.saves, ex.t, ErrCrashed)
	}
	return nil
}

// escalate moves down the degradation ladder after a commit gave up:
// failover to the secondary while the run is not on it yet,
// persistence-off past that. Both cases key on the store in use, not
// the level: a run a ride-out probe re-admitted on the secondary sits
// at LevelDegraded, and its next give-ups lead to LevelDown, never to
// a second failover onto the store it already uses. Permanent errors
// skip the consecutive-give-up thresholds.
func (ex *executor) escalate(permanent bool) error {
	switch {
	case ex.ad.Secondary != nil && !ex.onSecondary &&
		(permanent || ex.consec >= failoverAfter):
		ex.level = LevelFailover
		ex.use(ex.ad.Secondary)
		ex.onSecondary = true
		ex.consec = 0
		// Chains never span stores: the first save on the secondary
		// carries the whole journal.
		ex.base, ex.baseLen = 0, 0
		return ex.event(Event{Kind: EvDegrade, Time: ex.t, Arg: int32(ex.level)})
	case ex.level < LevelDown && (ex.ad.Secondary == nil || ex.onSecondary) &&
		(permanent || ex.consec >= ex.ad.downAfter()):
		ex.level = LevelDown
		return ex.event(Event{Kind: EvDegrade, Time: ex.t, Arg: int32(ex.level)})
	}
	return nil
}

// maybeReplan applies the hysteresis rule at commit s and splices a
// re-solved suffix at the frontier when the effective checkpoint cost
// has drifted out of the band since the plan was last (re)solved.
func (ex *executor) maybeReplan(s int) error {
	ad := ex.ad
	if ad.Replanner == nil || ad.ReplanRatio <= 1 || ex.baseCost <= 0 {
		return nil
	}
	from := ex.seg(s).End + 1
	if from >= len(ex.w.Order) {
		return nil
	}
	if ex.lastReplanAt1 > 0 && s+1-ex.lastReplanAt1 < ad.cooldown() {
		return nil
	}
	overhead := ex.currentOverheadEstimate()
	ratio := (ex.baseCost + overhead) / (ex.baseCost + ex.lastOverhead)
	if ratio < ad.ReplanRatio && ratio > 1/ad.ReplanRatio {
		return nil
	}
	segs, err := ad.Replanner.Replan(from, overhead)
	if err != nil {
		return fmt.Errorf("exec: replanning at frontier %d: %w", from, err)
	}
	if err := ex.spliceAt(s+1, from, segs); err != nil {
		return err
	}
	ex.replans++
	ex.lastOverhead = overhead
	ex.lastReplanAt1 = s + 1
	if ex.level == LevelHealthy {
		ex.level = LevelDegraded
	}
	return ex.event(Event{Kind: EvReplan, Time: ex.t, Arg: int32(from), Seq: math.Float64bits(overhead)})
}

// spliceAt makes segs the layout from segment cut on, validating that
// they cover positions [from, n−1] contiguously. Segments before cut
// have run and no later step reads them, so the executor keeps only
// the new tail (segment s is segs[s−cut]) and copies nothing; the
// shared Workload is never mutated.
func (ex *executor) spliceAt(cut, from int, segs []core.Segment) error {
	if len(segs) == 0 {
		return fmt.Errorf("exec: empty splice at frontier %d", from)
	}
	want := from
	for _, sg := range segs {
		if sg.Start != want || sg.End < sg.Start {
			return fmt.Errorf("exec: discontiguous splice at frontier %d (segment [%d,%d], want start %d)",
				from, sg.Start, sg.End, want)
		}
		want = sg.End + 1
	}
	if want != len(ex.w.Order) {
		return fmt.Errorf("exec: splice at frontier %d ends at %d, want %d", from, want-1, len(ex.w.Order)-1)
	}
	ex.segs, ex.segOff = segs, cut
	return nil
}

// restoreAdaptive finishes an adaptive resume once the adaptive record
// is assigned back, from the resolved journal (which records every
// ladder move and replan up to the encode point): it re-selects the
// active store and rebuilds the live segment layout with at most one
// Replan call. Replan is pure in (from, overhead), and the journal's
// last EvReplan re-solved every segment from its cut lastReplanAt1 on,
// which is at or before seq, the segment the resume runs next. So
// re-solving that one event yields the tail the uninterrupted run held
// at seq; earlier replans only shaped segments that have already run.
// The cut is the seq of the checkpoint journaled just before the
// replan, and a record that disagrees with its journal is refused.
func (ex *executor) restoreAdaptive(st *execState) error {
	var replan Event        // the journal's last EvReplan, if any
	var ckptSeq, cut uint64 // the latest checkpoint's seq; its value at that replan
	for _, e := range st.journal {
		switch {
		case e.Kind == EvDegrade && DegradeLevel(e.Arg) == LevelFailover:
			// Saves go to the secondary once the run has failed over,
			// whatever the ladder did since: a ride-out probe re-admits
			// the active store, which after a failover is the secondary.
			if ex.ad.Secondary == nil {
				return fmt.Errorf("exec: checkpoint was saved after failover but no secondary store is configured")
			}
			ex.use(ex.ad.Secondary)
			ex.onSecondary = true
		case e.Kind == EvCheckpoint:
			ckptSeq = e.Seq
		case e.Kind == EvReplan:
			replan, cut = e, ckptSeq
		}
	}
	replanned, at1 := replan.Kind == EvReplan, uint64(ex.lastReplanAt1)
	if at1 != cut || at1 > st.seq || (replanned && at1 < 1) {
		return fmt.Errorf("exec: checkpoint %d records its last replan at commit %d, but its journal has it at %d",
			st.seq, at1, cut)
	}
	if !replanned {
		return nil
	}
	if ex.ad.Replanner == nil {
		return fmt.Errorf("exec: journal records a replan at %d but no replanner is configured", replan.Arg)
	}
	segs, err := ex.ad.Replanner.Replan(int(replan.Arg), math.Float64frombits(replan.Seq))
	if err != nil {
		return fmt.Errorf("exec: replaying replan at %d: %w", replan.Arg, err)
	}
	return ex.spliceAt(int(at1), int(replan.Arg), segs)
}

// snapshot captures the executor's durable records for encoding as
// checkpoint seq.
func (ex *executor) snapshot(seq uint64) execState {
	return execState{
		fp: ex.fp, seq: seq, src: ex.src.State(),
		coreRecord: ex.coreRecord, adaptiveRecord: ex.adaptiveRecord,
		delta: ex.j[ex.baseLen:],
	}
}
