// Package exec is the crash-safe execution runtime: it runs checkpoint
// plans — chains and linearized DAGs alike, compiled to a Workload —
// against a live failure Source under a virtual clock, losing
// uncheckpointed progress on every failure exactly as the paper's model
// prescribes, persisting committed checkpoints through a pluggable
// store.Store, and recording a structured Journal of every attempt,
// failure, restore and checkpoint.
//
// The package's load-bearing property is replay determinism: because
// failure gaps are position-indexed (Source.State is just "which gap,
// how far into it") and the checkpoint payload round-trips every
// accumulator bit-exactly, a run that is killed at any point and
// resumed from the store produces a final journal byte-identical to the
// journal of an uninterrupted run. That is what makes the planned
// expectations of internal/core directly comparable to realized
// executions, crashes and all — and it is pinned by the crash-harness
// tests, which kill the executor at injected fault points (including
// torn writes and lost checkpoints from store.FaultStore) and diff the
// journals.
package exec

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/store"
)

// ErrCrashed is returned when an injected crash point (CrashAfterEvents
// or CrashAfterSaves) aborts the execution. State already persisted to
// the store is intact; re-invoking Execute resumes from it.
var ErrCrashed = errors.New("exec: injected crash")

// ErrTooManyFailures is returned when one execution exceeds its failure
// budget — the guard against configurations that cannot make progress.
var ErrTooManyFailures = errors.New("exec: failure budget exhausted; execution cannot make progress")

// ErrFingerprint is returned when a persisted checkpoint belongs to a
// different (workload, source) pair than the one being executed.
var ErrFingerprint = errors.New("exec: checkpoint fingerprint mismatch (different workload or failure source)")

// Metrics decomposes an execution, with the same fields and semantics
// as sim.RunStats so realized executions and simulated runs compare
// field-for-field.
type Metrics struct {
	// Makespan is the virtual wall-clock time of the whole execution.
	Makespan float64
	// Failures counts failure strikes (during work, checkpointing or
	// recovery).
	Failures int
	// Lost is wasted work and checkpoint time (rolled back on failure).
	Lost float64
	// Downtime is total downtime served.
	Downtime float64
	// RecoveryTime is total time in recoveries, failed attempts included.
	RecoveryTime float64
	// Useful is work plus checkpoint time that stuck.
	Useful float64
	// StoreOverhead is virtual time burned on the store side channel in
	// adaptive mode — injected save latency plus retry backoff delays. It
	// is included in Makespan but kept out of the sim.RunStats-aligned
	// fields above (always 0 outside adaptive mode).
	StoreOverhead float64
}

// Result is the outcome of one Execute call.
type Result struct {
	Metrics
	// Journal is the full structured record, including any prefix
	// restored from a checkpoint.
	Journal Journal
	// Checkpoints counts committed checkpoints in the journal.
	Checkpoints int
	// Saves counts store saves performed by this invocation.
	Saves int
	// Resumed reports whether state was restored from the store,
	// ResumeSeq which checkpoint sequence it was restored from, and
	// RestoredEvents how many journal events its resolved chain held.
	Resumed        bool
	ResumeSeq      uint64
	RestoredEvents int
	// Replans counts online replans applied over the run's lifetime
	// (adaptive mode), GiveUps the commits whose save was abandoned,
	// Level the final degradation-ladder position, and MaxRewind the
	// worst crash-rewind exposure (virtual time between a moment of
	// execution and the last PERSISTED checkpoint) the run ever carried.
	Replans   int
	GiveUps   int
	Level     DegradeLevel
	MaxRewind float64
	// OverheadEstimate is the store-health EWMA estimate of
	// per-checkpoint overhead at run end (adaptive mode) — the
	// realized-telemetry figure a planner can feed back into a
	// latency-aware re-solve (see ProbeStore and ChainReplanner).
	OverheadEstimate float64
	// Epoch is the fencing epoch this invocation held, when the store
	// stack carries a lease layer (0 otherwise). A resumed run reports
	// a strictly higher epoch than the invocation it took over from.
	Epoch uint64
	// Syncs counts anti-entropy passes run at executor idle points,
	// SyncCopied the replica copies those passes wrote, and
	// SyncFailures the passes that could not fully converge (e.g.
	// mid-partition) and will be retried at the next idle point.
	Syncs        int
	SyncCopied   int
	SyncFailures int
}

// Options tunes an execution.
type Options struct {
	// RunID names the run in the store ("run" when empty).
	RunID string
	// Store persists checkpoints; nil disables persistence (the
	// execution model is unchanged — checkpoint costs are still paid).
	Store store.Store
	// Downtime is D, the failure-free delay after every failure.
	Downtime float64
	// MaxFailures bounds failures tolerated per invocation (0 means the
	// default of 10 million).
	MaxFailures int
	// SaveRetries is how many times a transient store Save or Load
	// failure is retried before giving up (0 means none) when Adaptive
	// is nil: the retry policy is then FixedRetry{SaveRetries}. Retries
	// matter under store.FaultStore: transient injected faults succeed
	// on retry; permanent errors (corrupt or missing checkpoint, quota)
	// are never retried.
	SaveRetries int
	// CrashAfterEvents, when positive, aborts with ErrCrashed as soon as
	// the journal holds that many events — a deterministic kill point
	// anywhere in the execution, including between a checkpoint event
	// and its save.
	CrashAfterEvents int
	// CrashAfterSaves, when positive, aborts with ErrCrashed right after
	// this invocation's n-th successful store save.
	CrashAfterSaves int
	// Adaptive, when non-nil, enables the degraded-store resilience
	// layer (health-tracked retries with backoff, online replanning,
	// failover and persistence-off — see AdaptiveOptions). Requires a
	// Store. SaveRetries is ignored in adaptive mode; Adaptive.Retry
	// governs retries instead. When nil, the store stays off the
	// modeled timeline: save outcomes are not journaled, store latency
	// is not charged, and a save that gives up ends the invocation with
	// ErrSaveExhausted or ErrSavePermanent.
	Adaptive *AdaptiveOptions
}

func (o Options) runID() string {
	if o.RunID == "" {
		return "run"
	}
	return o.RunID
}

func (o Options) maxFailures() int {
	if o.MaxFailures <= 0 {
		return 10_000_000
	}
	return o.MaxFailures
}

// executor is the state of one Execute invocation.
type executor struct {
	w    *Workload
	src  Source
	opts Options
	fp   uint64 // workload fingerprint mixed with source fingerprint

	// The durable state: what every checkpoint carries.
	coreRecord
	adaptiveRecord // zero / unused when ad is nil

	j       Journal
	attempt float64 // elapsed time of the in-flight attempt
	curSeg  int
	saves   int
	budget  int

	// The live tail of the segment layout: segment s is
	// segs[s−segOff]. Initially the Workload's segments at offset 0; an
	// online replan replaces the tail from its cut on (spliceAt), so
	// the shared Workload is never mutated and segments that have run
	// are dropped.
	segs   []core.Segment
	segOff int

	store store.Store // active store (primary, or secondary after failover)
	meter store.Meter // the run's latency meter on store (use)
	retry RetryPolicy // Adaptive.Retry, or FixedRetry{SaveRetries}
	// onSecondary reports that saves go to ad.Secondary: set by the
	// failover, and on a resume whose journal records one. A ride-out
	// probe re-admits the secondary without clearing it.
	onSecondary bool

	ad       *AdaptiveOptions
	baseCost float64 // the drift reference: the plan's mean checkpoint cost

	// Anti-entropy pass counters (SyncEvery > 0); never journaled.
	syncs        int
	syncCopied   int
	syncFailures int

	// pending is the in-flight store overhead of the current save loop
	// (accrued latency + backoffs not yet folded into t). The virtual
	// clock bound to time-dependent store layers reads t + pending, so
	// retries and backoff advance delivery time mid-commit — an
	// execution backing off across a partition window's end observes
	// the heal. Always zero at state-encode time, so it never needs to
	// round-trip through the checkpoint.
	pending float64
}

// Execute runs the workload against src. With a store configured it
// first tries to resume from the latest loadable checkpoint (falling
// back to older ones past corrupt, lost or unreadable entries), then
// executes the remaining segments, persisting a checkpoint after each.
// On ErrCrashed (injected kill) or a store failure, the returned Result
// carries the partial journal; re-invoking Execute with the same
// arguments resumes and completes the run.
func Execute(w *Workload, src Source, opts Options) (*Result, error) {
	if opts.Downtime < 0 {
		return nil, fmt.Errorf("exec: negative downtime %v", opts.Downtime)
	}
	if w.Segments() == 0 {
		return nil, errors.New("exec: workload has no segments")
	}
	ex := &executor{
		w:      w,
		src:    src,
		opts:   opts,
		fp:     w.Fingerprint() ^ (src.Fingerprint() * 0x9e3779b97f4a7c15),
		budget: opts.maxFailures(),
		retry:  FixedRetry{Attempts: opts.SaveRetries},

		coreRecord: coreRecord{jhash: fnvOffset64},
		segs:       w.segs,
	}
	if opts.Adaptive != nil {
		if opts.Store == nil {
			return nil, errors.New("exec: adaptive mode requires a store")
		}
		ex.ad = opts.Adaptive
		ex.retry = opts.Adaptive.Retry
		if ex.retry == nil {
			ex.retry = NoRetry{}
		}
		ex.baseCost = w.meanCheckpointCost()
	}
	if opts.Store != nil {
		// Bind the run's virtual clock into every time-dependent store
		// layer (RemoteStore partition evaluation). The closure reads
		// the live executor clock plus any in-flight save overhead, so
		// delivery times track the commit's own retries.
		clock := func() float64 { return ex.t + ex.pending }
		store.BindClock(opts.Store, opts.runID(), clock)
		if opts.Adaptive != nil && opts.Adaptive.Secondary != nil {
			store.BindClock(opts.Adaptive.Secondary, opts.runID(), clock)
		}
		ex.use(opts.Store)
	}
	res := &Result{}
	if opts.Store != nil {
		// Epoch-fenced writes: when the stack carries a lease layer,
		// claim the run before touching it. A fresh LeaseStore instance
		// (a new process) bumps the epoch, fencing every older writer's
		// saves; re-entering on the same instance (a zombie waking up)
		// keeps its stale session and is fenced on its first write.
		var ls store.LeaseState
		var leased bool
		lerr := ex.retryOffTimeline(func() (err error) {
			ls, leased, err = store.AcquireLease(opts.Store, opts.runID())
			return err
		})
		if lerr != nil {
			return res, fmt.Errorf("exec: acquiring run lease: %w", lerr)
		}
		if leased {
			res.Epoch = ls.Epoch
		}
	}
	startSeg := 0
	st, raw, err := ex.loadResume()
	if err != nil {
		return res, err
	}
	if st != nil {
		ex.coreRecord = st.coreRecord
		ex.j = st.journal
		ex.src.Restore(st.src)
		startSeg = int(st.seq)
		res.Resumed = true
		res.ResumeSeq = st.seq
		res.RestoredEvents = len(st.journal)
		if ex.ad == nil {
			// A legacy resume ignores the adaptive record and chains its
			// next payload onto the restored one.
			ex.base, ex.baseLen = st.seq, uint64(len(st.journal))
		} else {
			// An adaptive resume starts from the restored payload's own
			// base: its re-save below advances it exactly as the
			// uninterrupted run's save of that payload did.
			ex.adaptiveRecord = st.adaptiveRecord
			if err := ex.restoreAdaptive(st); err != nil {
				return res, err
			}
		}
	}
	err = func() error {
		if st != nil && ex.ad != nil {
			// Re-save the restored payload through the normal post-encode
			// path. The save outcomes of commit k happen AFTER payload k is
			// encoded, so they are not inside it; re-saving against the
			// logically-keyed store stack regenerates the same outcome
			// events, clock overhead and ladder moves the uninterrupted run
			// produced at that commit.
			if err := ex.persist(st.seq, raw); err != nil {
				return err
			}
		}
		for s := startSeg; s < ex.segOff+len(ex.segs); s++ {
			if err := ex.runSegment(s); err != nil {
				return err
			}
			if err := ex.commit(s); err != nil {
				return err
			}
			// Anti-entropy at the executor's idle point between commits,
			// keyed to the absolute segment index so the cadence is
			// resume-invariant.
			if ex.ad != nil && ex.ad.SyncEvery > 0 && (s+1)%ex.ad.SyncEvery == 0 {
				ex.syncPass()
			}
		}
		if err := ex.event(Event{Kind: EvComplete, Time: ex.t}); err != nil {
			return err
		}
		// One final pass after completion so the run ends with every
		// replica it can reach converged.
		if ex.ad != nil && ex.ad.SyncEvery > 0 {
			ex.syncPass()
		}
		return nil
	}()
	ex.met.Makespan = ex.t
	if ex.ad != nil {
		ex.noteExposure()
	}
	res.Metrics = ex.met
	res.Journal = ex.j
	res.Checkpoints = ex.j.Count(EvCheckpoint)
	res.Saves = ex.saves
	res.Replans = ex.replans
	res.GiveUps = ex.giveups
	res.Level = ex.level
	res.MaxRewind = ex.maxRewind
	if ex.ad != nil {
		res.OverheadEstimate = ex.health.OverheadEstimate()
	}
	res.Syncs = ex.syncs
	res.SyncCopied = ex.syncCopied
	res.SyncFailures = ex.syncFailures
	return res, err
}

// syncPass runs one anti-entropy pass over the active store, best
// effort: failures are counted, not surfaced — a pass that could not
// converge (mid-partition) is retried at the next idle point, and the
// read path still repairs in the meantime. Nothing here journals or
// advances the virtual clock, so replay identity is untouched.
func (ex *executor) syncPass() {
	sy, ok := store.FindSyncer(ex.opts.Store)
	if !ok {
		return
	}
	rep, err := sy.SyncRun(ex.opts.runID())
	ex.syncs++
	ex.syncCopied += rep.Copied
	if err != nil {
		ex.syncFailures++
	}
}

// event appends to the journal, folds it into the running journal
// hash, and fires the event-count crash point.
func (ex *executor) event(e Event) error {
	ex.j = append(ex.j, e)
	ex.jhash = hashEvent(ex.jhash, e)
	if n := ex.opts.CrashAfterEvents; n > 0 && len(ex.j) >= n {
		return fmt.Errorf("exec: crash after %d journal events (t=%v): %w", len(ex.j), ex.t, ErrCrashed)
	}
	return nil
}

// piece advances the execution through d units of atomic progress
// (one task's work, or a segment's checkpoint phase). It returns done =
// true if the piece completed, done = false if a failure struck — in
// which case the failure, downtime and recovery (with possible repeated
// failures) have all been served and the attempt must restart.
func (ex *executor) piece(d float64) (done bool, err error) {
	if next := ex.src.NextFailure(); next >= d {
		ex.src.Advance(d)
		ex.t += d
		ex.attempt += d
		return true, nil
	} else {
		// Failure mid-piece: everything since the attempt started is lost.
		ex.src.ObserveFailure()
		ex.t += next
		ex.met.Lost += ex.attempt + next
		ex.attempt = 0
		if err := ex.strike(); err != nil {
			return false, err
		}
	}
	// Downtime is failure-free by assumption; process clocks frozen.
	ex.t += ex.opts.Downtime
	ex.met.Downtime += ex.opts.Downtime
	// Recovery: failures possible; repeat until one completes.
	rec := ex.seg(ex.curSeg).Recovery
	for {
		if next := ex.src.NextFailure(); next >= rec {
			ex.src.Advance(rec)
			ex.t += rec
			ex.met.RecoveryTime += rec
			break
		} else {
			ex.src.ObserveFailure()
			ex.t += next
			ex.met.RecoveryTime += next
			if err := ex.strike(); err != nil {
				return false, err
			}
			ex.t += ex.opts.Downtime
			ex.met.Downtime += ex.opts.Downtime
		}
	}
	return false, ex.event(Event{Kind: EvRestored, Time: ex.t})
}

// strike accounts one failure: budget check plus journal event.
func (ex *executor) strike() error {
	ex.met.Failures++
	if ex.met.Failures > ex.budget {
		return ErrTooManyFailures
	}
	return ex.event(Event{Kind: EvFailure, Time: ex.t})
}

// seg is segment s of the current layout.
func (ex *executor) seg(s int) core.Segment { return ex.segs[s-ex.segOff] }

// runSegment executes segment s to a committed checkpoint event,
// restarting the attempt from the segment start after every failure.
func (ex *executor) runSegment(s int) error {
	ex.curSeg = s
	sg := ex.seg(s)
	start, end := sg.Start, sg.End
	for {
		ex.attempt = 0
		if err := ex.event(Event{Kind: EvSegmentStart, Time: ex.t, Arg: int32(start)}); err != nil {
			return err
		}
		failed := false
		for pos := start; pos <= end; pos++ {
			done, err := ex.piece(ex.w.Weights[pos])
			if err != nil {
				return err
			}
			if !done {
				failed = true
				break
			}
			if err := ex.event(Event{Kind: EvTaskDone, Time: ex.t, Arg: int32(ex.w.Order[pos])}); err != nil {
				return err
			}
		}
		if failed {
			continue
		}
		done, err := ex.piece(sg.Checkpoint)
		if err != nil {
			return err
		}
		if done {
			ex.met.Useful += ex.attempt
			ex.attempt = 0
			return ex.event(Event{Kind: EvCheckpoint, Time: ex.t, Seq: uint64(s) + 1})
		}
	}
}

// commit persists the post-segment state. The EvCheckpoint event was
// already appended by runSegment, BEFORE the state is encoded here, so
// the event is always inside the persisted journal prefix: a resume
// from seq k replays from a journal that already records checkpoint k.
// In adaptive mode the commit first journals health and may replan, so
// both are part of the persisted prefix too.
func (ex *executor) commit(s int) error {
	if ex.store == nil {
		return nil
	}
	if ex.ad != nil {
		est := ex.baseCost + ex.currentOverheadEstimate()
		if err := ex.event(Event{Kind: EvHealth, Time: ex.t, Arg: int32(ex.level), Seq: math.Float64bits(est)}); err != nil {
			return err
		}
		if err := ex.maybeReplan(s); err != nil {
			return err
		}
	}
	seq := uint64(s) + 1
	st := ex.snapshot(seq)
	return ex.persist(seq, encodeState(&st))
}

// resumeCandidate is one listed checkpoint and the store holding it.
type resumeCandidate struct {
	seq       uint64
	secondary bool
}

// listOnce lists a run's checkpoints, riding out transient network
// loss: a lost list message surfaces as a timeout, and a retry is an
// independent draw (the network keys outcomes by attempt), so a small
// retry budget keeps a seeded message drop from killing a resume. A
// partition times out every attempt deterministically and still fails
// loudly after the budget. Like loads, list retries serve no backoff:
// resume happens outside the modeled timeline.
func (ex *executor) listOnce(st store.Store) ([]uint64, error) {
	seqs, err := st.List(ex.opts.runID())
	for extra := 0; errors.Is(err, store.ErrTimeout) && extra < 4; extra++ {
		seqs, err = st.List(ex.opts.runID())
	}
	return seqs, err
}

// listResume merges the primary's checkpoint listing with the
// secondary's (adaptive mode with a failover store), newest first,
// preferring the secondary on equal sequence numbers — the secondary
// only ever holds post-failover saves, which are the later writes.
func (ex *executor) listResume() ([]resumeCandidate, error) {
	seqs, err := ex.listOnce(ex.opts.Store)
	if err != nil {
		return nil, fmt.Errorf("exec: listing checkpoints: %w", err)
	}
	var sec []uint64
	if ex.ad != nil && ex.ad.Secondary != nil {
		if sec, err = ex.listOnce(ex.ad.Secondary); err != nil {
			return nil, fmt.Errorf("exec: listing secondary checkpoints: %w", err)
		}
	}
	cands := make([]resumeCandidate, 0, len(seqs)+len(sec))
	i, k := len(seqs)-1, len(sec)-1
	for i >= 0 || k >= 0 {
		switch {
		case i < 0 || (k >= 0 && sec[k] >= seqs[i]):
			if i >= 0 && sec[k] == seqs[i] {
				i--
			}
			cands = append(cands, resumeCandidate{seq: sec[k], secondary: true})
			k--
		default:
			cands = append(cands, resumeCandidate{seq: seqs[i]})
			i--
		}
	}
	return cands, nil
}

// loadOnce loads one checkpoint under retryOffTimeline: permanent
// errors (a corrupt frame, a missing entry) return at once so the
// caller falls back to an older checkpoint.
func (ex *executor) loadOnce(st store.Store, seq uint64) (data []byte, err error) {
	err = ex.retryOffTimeline(func() error {
		data, err = st.Load(ex.opts.runID(), seq)
		return err
	})
	return data, err
}

// retryOffTimeline runs op, retrying transient errors while the
// executor's retry policy allows. Backoff delays are NOT served: lease
// acquisition and resume happen outside the modeled timeline (an
// uninterrupted run performs no loads), so their retries must not
// advance any clock. ErrLeaseHeld is not retried either: with the clock
// standing still, the other holder's lease cannot expire.
func (ex *executor) retryOffTimeline(op func() error) error {
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || ClassifyStoreError(err) != ClassTransient || errors.Is(err, store.ErrLeaseHeld) {
			return err
		}
		if _, retry := ex.retry.Backoff(attempt); !retry {
			return err
		}
	}
}

// loadResume finds the newest loadable, decodable checkpoint of this
// run whose chain resolves, skipping past corrupt frames, injected read
// failures (after retries), lost entries and broken chains to older
// checkpoints, consulting the secondary store too when one is
// configured. It returns the decoded state, with its full journal,
// together with the raw payload (the adaptive resume re-saves it) or nil
// with no error when the run has no usable checkpoint (fresh start). A
// fingerprint mismatch is a loud error: the store holds a different
// workload's state and silently restarting would mask it.
func (ex *executor) loadResume() (*execState, []byte, error) {
	if ex.opts.Store == nil {
		return nil, nil, nil
	}
	cands, err := ex.listResume()
	if err != nil {
		return nil, nil, err
	}
	for _, c := range cands {
		from := ex.opts.Store
		if c.secondary {
			from = ex.ad.Secondary
		}
		st, data, err := ex.loadState(from, c.seq)
		if err == nil {
			err = ex.resolveChain(from, st)
		}
		if errors.Is(err, errChainBroken) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		return st, data, nil
	}
	return nil, nil, nil
}

// loadState loads and decodes checkpoint seq from the given store. A
// corrupt frame, a missing entry, an injected read failure that outlived
// its retries, a timeout (a partition active at resume time makes an
// entry unreachable, not the run unresumable — replaying more is always
// safe), or a payload stored under another seq's key returns
// errChainBroken, which the resume falls back past. A load error of any
// other kind, a payload that fails to decode, or one belonging to
// another workload is a loud error.
func (ex *executor) loadState(from store.Store, seq uint64) (*execState, []byte, error) {
	data, err := ex.loadOnce(from, seq)
	if errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrNotFound) ||
		errors.Is(err, store.ErrInjected) || errors.Is(err, store.ErrTimeout) {
		return nil, nil, fmt.Errorf("%w: loading checkpoint %d: %w", errChainBroken, seq, err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("exec: loading checkpoint %d: %w", seq, err)
	}
	st, err := decodeState(data)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: checkpoint %d: %w", seq, err)
	}
	if st.fp != ex.fp {
		return nil, nil, fmt.Errorf("%w: checkpoint %d has %016x, want %016x",
			ErrFingerprint, seq, st.fp, ex.fp)
	}
	if st.seq != seq {
		return nil, nil, fmt.Errorf("%w: checkpoint %d holds seq %d", errChainBroken, seq, st.seq)
	}
	return st, data, nil
}

// errChainBroken reports a checkpoint that cannot be resumed from
// because it, or a link of its chain of bases, is missing, corrupt,
// unreachable, or is not the state its successor was encoded against.
// The resume falls back to an older checkpoint.
var errChainBroken = errors.New("exec: broken checkpoint chain")

// resolveChain rebuilds st's full journal. It walks the base links on
// the store that holds st (every chain lives on one store: failover
// restarts it), then concatenates the deltas oldest first. Each link
// must be stored under the sequence its successor names, must encode
// exactly the journal length its successor was based on, and the
// running hash at its end must equal the hash it recorded, so the
// resolved journal is the one every payload in the chain was encoded
// from.
func (ex *executor) resolveChain(from store.Store, st *execState) error {
	links := []*execState{st}
	for cur := st; cur.base != 0; {
		link, _, err := ex.loadState(from, cur.base)
		if err != nil {
			return err
		}
		if link.journalLen() != cur.baseLen {
			return fmt.Errorf("%w: checkpoint %d: link %d encodes %d events, want %d",
				errChainBroken, st.seq, cur.base, link.journalLen(), cur.baseLen)
		}
		links = append(links, link)
		cur = link
	}
	j := make(Journal, 0, st.journalLen())
	h := uint64(fnvOffset64)
	for i := len(links) - 1; i >= 0; i-- {
		for _, e := range links[i].delta {
			h = hashEvent(h, e)
		}
		if h != links[i].jhash {
			return fmt.Errorf("%w: checkpoint %d: journal hash mismatch at link %d", errChainBroken, st.seq, links[i].seq)
		}
		j = append(j, links[i].delta...)
	}
	st.journal = j
	return nil
}
