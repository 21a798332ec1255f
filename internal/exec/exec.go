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
	// RestoredEvents how many journal events that checkpoint carried.
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

	t       float64 // virtual clock
	met     Metrics
	j       Journal
	attempt float64 // elapsed time of the in-flight attempt
	curSeg  int
	saves   int
	budget  int

	// Executor-local segment layout. Initially aliases the Workload's
	// arrays; online replans replace the slices wholesale (spliceAt), so
	// the shared Workload is never mutated.
	segStart, segEnd []int
	segCkpt, segRec  []float64

	store store.Store // active store (primary, or secondary after failover)
	retry RetryPolicy // Adaptive.Retry, or FixedRetry{SaveRetries}

	// Adaptive-mode state; zero / unused when ad is nil.
	ad           *AdaptiveOptions
	health       StoreHealth
	level        DegradeLevel
	consec       int // consecutive commit give-ups on the active store
	giveups      int // lifetime commit give-ups
	sinceDown    int // commits skipped since the last ride-out probe
	replans      int // replans applied (including replayed ones)
	lastOverhead float64
	lastReplanAt int64 // commit index of the last replan; −1 = never
	lastPersistT float64
	maxRewind    float64
	baseCost     float64

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
		store:  opts.Store,
		retry:  FixedRetry{Attempts: opts.SaveRetries},

		segStart: w.segStart,
		segEnd:   w.segEnd,
		segCkpt:  w.segCkpt,
		segRec:   w.segRec,
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
		ex.health = newStoreHealth()
		ex.lastReplanAt = -1
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
	}
	res := &Result{}
	if opts.Store != nil {
		// Epoch-fenced writes: when the stack carries a lease layer,
		// claim the run before touching it. A fresh LeaseStore instance
		// (a new process) bumps the epoch, fencing every older writer's
		// saves; re-entering on the same instance (a zombie waking up)
		// keeps its stale session and is fenced on its first write.
		ls, leased, lerr := store.AcquireLease(opts.Store, opts.runID())
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
		ex.t = st.t
		ex.met = st.met
		ex.j = st.journal
		ex.src.Restore(st.src)
		startSeg = int(st.nextSeg)
		res.Resumed = true
		res.ResumeSeq = st.seq
		res.RestoredEvents = len(st.journal)
		if ex.ad != nil {
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
		for s := startSeg; s < len(ex.segStart); s++ {
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

// event appends to the journal and fires the event-count crash point.
func (ex *executor) event(e Event) error {
	ex.j = append(ex.j, e)
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
	rec := ex.segRec[ex.curSeg]
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

// runSegment executes segment s to a committed checkpoint event,
// restarting the attempt from the segment start after every failure.
func (ex *executor) runSegment(s int) error {
	ex.curSeg = s
	start, end := ex.segStart[s], ex.segEnd[s]
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
		done, err := ex.piece(ex.segCkpt[s])
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
	return ex.persist(seq, encodeState(ex.snapshot(seq, seq)))
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

// loadOnce loads one checkpoint under the executor's retry policy:
// transient errors are retried while the policy allows, permanent ones
// (a corrupt frame, a missing entry) return at once so the caller falls
// back to an older checkpoint. Backoff delays are NOT served: resume
// happens outside the modeled timeline (an uninterrupted run performs
// no loads), so load retries must not advance any clock.
func (ex *executor) loadOnce(st store.Store, seq uint64) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		data, err := st.Load(ex.opts.runID(), seq)
		if err == nil || ClassifyStoreError(err) != ClassTransient {
			return data, err
		}
		if _, retry := ex.retry.Backoff(attempt, 0); !retry {
			return nil, err
		}
	}
}

// loadResume finds the newest loadable, decodable checkpoint of this
// run, skipping past corrupt frames, injected read failures (after
// retries) and lost entries to older checkpoints, consulting the
// secondary store too when one is configured. It returns the decoded
// state together with the raw payload (the adaptive resume re-saves it)
// or nil with no error when the run has no usable checkpoint (fresh
// start). A fingerprint mismatch is a loud error: the store holds a
// different workload's state and silently restarting would mask it.
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
		data, err := ex.loadOnce(from, c.seq)
		if errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrNotFound) ||
			errors.Is(err, store.ErrInjected) || errors.Is(err, store.ErrTimeout) {
			// Fall back to an older checkpoint. Timeouts included: a
			// partition active at resume time makes the newest entry
			// unreachable, not the run unresumable — replaying more is
			// always safe.
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("exec: loading checkpoint %d: %w", c.seq, err)
		}
		st, err := decodeState(data)
		if err != nil {
			return nil, nil, err
		}
		if st.fp != ex.fp {
			return nil, nil, fmt.Errorf("%w: checkpoint %d has %016x, want %016x",
				ErrFingerprint, c.seq, st.fp, ex.fp)
		}
		return st, data, nil
	}
	return nil, nil, nil
}

// execState is the decoded checkpoint payload: every accumulator the
// executor owns, bit-exact, plus the source position and the journal
// prefix. Bit-exact float round-tripping is what makes resumed
// accumulations identical to uninterrupted ones. The adaptive block
// (health, ladder, hysteresis anchors, exposure accounting) rides along
// as zeros for legacy runs.
type execState struct {
	fp      uint64
	seq     uint64
	nextSeg uint64
	t       float64
	met     Metrics
	src     SourceState
	journal Journal

	healthCommits  uint64
	healthEwmaLat  float64
	healthEwmaOver float64
	healthBits     uint64
	healthNbits    uint64
	healthAttempts uint64
	healthFailures uint64
	level          uint64
	consec         uint64
	giveups        uint64
	replans        uint64
	lastOverhead   float64
	lastReplanAt1  uint64 // commit index of last replan + 1; 0 = never
	lastPersistT   float64
	maxRewind      float64
	sinceDown      uint64
}

// stateSchema versions the checkpoint payload (inside the store codec's
// frame, which versions the framing itself). Schema 2 appended the
// adaptive block to schema 1's twelve slots, reusing slot 11 (reserved)
// for StoreOverhead; schema 3 appended the ride-out probe counter
// (sinceDown).
const stateSchema = 3

// stateHeaderSize is the fixed part of the payload before the journal.
const stateHeaderSize = 4 + 8*28

// encodeState serializes the checkpoint payload.
func encodeState(st *execState) []byte {
	out := make([]byte, stateHeaderSize, stateHeaderSize+8+len(st.journal)*eventSize)
	putU32(out, stateSchema)
	fields := [...]uint64{
		st.fp,
		st.seq,
		st.nextSeg,
		math.Float64bits(st.t),
		uint64(st.met.Failures),
		math.Float64bits(st.met.Lost),
		math.Float64bits(st.met.Downtime),
		math.Float64bits(st.met.RecoveryTime),
		math.Float64bits(st.met.Useful),
		st.src.Draws,
		math.Float64bits(st.src.Consumed),
		math.Float64bits(st.met.StoreOverhead),
		st.healthCommits,
		math.Float64bits(st.healthEwmaLat),
		math.Float64bits(st.healthEwmaOver),
		st.healthBits,
		st.healthNbits,
		st.healthAttempts,
		st.healthFailures,
		st.level,
		st.consec,
		st.giveups,
		st.replans,
		math.Float64bits(st.lastOverhead),
		st.lastReplanAt1,
		math.Float64bits(st.lastPersistT),
		math.Float64bits(st.maxRewind),
		st.sinceDown,
	}
	for i, v := range fields {
		putU64(out[4+8*i:], v)
	}
	return append(out, st.journal.Marshal()...)
}

// errState reports a malformed checkpoint payload — a schema mismatch
// or truncation that survived the store codec's CRC, i.e. a version
// skew rather than bit rot. It is loud, not skipped: resuming past it
// would silently discard real state.
var errState = errors.New("exec: malformed checkpoint payload")

// decodeState parses a checkpoint payload.
func decodeState(data []byte) (*execState, error) {
	if len(data) < stateHeaderSize {
		return nil, errState
	}
	if getU32(data) != stateSchema {
		return nil, fmt.Errorf("%w: schema %d, want %d", errState, getU32(data), stateSchema)
	}
	f := func(i int) uint64 { return getU64(data[4+8*i:]) }
	st := &execState{
		fp:      f(0),
		seq:     f(1),
		nextSeg: f(2),
		t:       math.Float64frombits(f(3)),
		met: Metrics{
			Failures:      int(f(4)),
			Lost:          math.Float64frombits(f(5)),
			Downtime:      math.Float64frombits(f(6)),
			RecoveryTime:  math.Float64frombits(f(7)),
			Useful:        math.Float64frombits(f(8)),
			StoreOverhead: math.Float64frombits(f(11)),
		},
		src: SourceState{Draws: f(9), Consumed: math.Float64frombits(f(10))},

		healthCommits:  f(12),
		healthEwmaLat:  math.Float64frombits(f(13)),
		healthEwmaOver: math.Float64frombits(f(14)),
		healthBits:     f(15),
		healthNbits:    f(16),
		healthAttempts: f(17),
		healthFailures: f(18),
		level:          f(19),
		consec:         f(20),
		giveups:        f(21),
		replans:        f(22),
		lastOverhead:   math.Float64frombits(f(23)),
		lastReplanAt1:  f(24),
		lastPersistT:   math.Float64frombits(f(25)),
		maxRewind:      math.Float64frombits(f(26)),
		sinceDown:      f(27),
	}
	j, err := UnmarshalJournal(data[stateHeaderSize:])
	if err != nil {
		return nil, err
	}
	st.journal = j
	return st, nil
}
