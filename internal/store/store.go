// Package store provides pluggable checkpoint storage for the execution
// runtime (internal/exec): a small Store interface, an in-memory
// implementation, a crash-durable file implementation built on the
// repo's temp+fsync+rename discipline (internal/fsx), a checksummed
// schema-versioned codec layer, and decorators for deterministic fault
// injection, a simulated network hop, quorum replication, epoch-fenced
// leases and tenant quotas.
//
// A Spec declares a stack and Build composes it in the one supported
// layer order:
//
//	store.Spec{Backends: []store.Store{fs}}.Build()                // production
//	store.Spec{Backends: []store.Store{mem}, Faults: &plan}.Build() // fault drills
//	store.Spec{Backends: reps, Net: &netCfg,
//		Lease: &lease, Quota: ledger}.Build()                  // replicated, fenced, metered
//
// Every stack carries the codec (Checked): every payload is sealed
// (magic, schema version, length, CRC-32) on Save and verified on
// Load, so a torn or bit-rotted checkpoint surfaces as ErrCorrupt
// instead of being handed to the executor as good state. The executor
// treats ErrCorrupt as "fall back to the previous checkpoint", which is
// what makes torn writes survivable rather than fatal.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrNotFound reports a missing checkpoint (unknown run or sequence).
var ErrNotFound = errors.New("store: checkpoint not found")

// ErrCorrupt reports a checkpoint that failed codec verification: bad
// magic, unsupported schema version, truncated payload or checksum
// mismatch — the expected residue of a write torn by a crash.
var ErrCorrupt = errors.New("store: corrupt checkpoint")

// Store persists checkpoint payloads keyed by (run ID, sequence number).
// Save overwrites: re-executing a segment after a rollback re-saves the
// same sequence, and the latest write wins. Implementations must be safe
// for concurrent use by multiple goroutines operating on distinct runs;
// a single run is always driven by one executor at a time.
//
// Buffer ownership: Save neither modifies payload nor keeps a reference
// to it after returning, and every Load returns a buffer the caller
// owns, one that no other Load result and nothing inside the store
// shares. Decorators
// may therefore hand an inner store's Load result, or a sub-slice of
// it, straight to their caller without copying.
type Store interface {
	// Save persists payload as checkpoint seq of run.
	Save(run string, seq uint64, payload []byte) error
	// Load returns checkpoint seq of run, or ErrNotFound. The returned
	// buffer belongs to the caller.
	Load(run string, seq uint64) ([]byte, error)
	// List returns the sequence numbers persisted for run, ascending.
	// A run with no checkpoints yields an empty list and no error.
	List(run string) ([]uint64, error)
	// Delete removes checkpoint seq of run; removing a missing
	// checkpoint returns ErrNotFound.
	Delete(run string, seq uint64) error
}

// Unwrapper is implemented by decorator stores that expose their inner
// store. Every capability lookup (LastOp, Measure, FindSyncer,
// FindScrubber, AcquireLease, BindClock) walks a composed stack through
// it, so a decorator that implements Unwrap is transparent to all of
// them.
type Unwrapper interface {
	Unwrap() Store
}

// find walks the decorator stack of s from the top and returns the
// first layer that implements T.
func find[T any](s Store) (T, bool) {
	for s != nil {
		if t, ok := s.(T); ok {
			return t, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			break
		}
		s = u.Unwrap()
	}
	var zero T
	return zero, false
}

// ClockBinder is implemented by layers whose outcomes depend on virtual
// time (RemoteStore evaluates partition windows at delivery time).
// BindClock registers the time source for one run; an unbound run reads
// time zero.
type ClockBinder interface {
	BindClock(run string, now func() float64)
}

// BindClock walks the decorator stack of s and registers now as run's
// virtual-time source with every layer that consumes one. Stores that
// fan out to several inner stores (QuorumStore) implement ClockBinder
// themselves and forward the binding to each replica, so a single call
// at the top of a composed stack reaches every time-dependent layer.
// Returns the number of layers bound; zero means the stack is
// time-independent.
func BindClock(s Store, run string, now func() float64) int {
	bound := 0
	for s != nil {
		if b, isBinder := s.(ClockBinder); isBinder {
			b.BindClock(run, now)
			bound++
		}
		u, isWrapper := s.(Unwrapper)
		if !isWrapper {
			break
		}
		s = u.Unwrap()
	}
	return bound
}

// lastOpReader is the capability behind LastOp and Measure; the
// latency-tracking layers (FaultStore, RemoteStore, QuorumStore)
// implement it through their embedded opLedger and per-run records.
type lastOpReader interface {
	LastOp(run string) RunOp
	// runOp resolves run's ledger entry, creating the layer's per-run
	// record on first use. The entry never moves, and only the run's
	// driver books into it, so that driver may read it without a lock.
	runOp(run string) *RunOp
}

// LastOp walks the decorator stack of s to the topmost layer that
// tracks per-run operations and returns the run's operation count and
// the EXACT virtual latency of its most recent operation. ok is false
// when no layer tracks operations — a real store whose latency is
// wall-clock, not virtual — in which case callers should treat latency
// as unobservable rather than zero-cost.
func LastOp(s Store, run string) (op RunOp, ok bool) {
	r, ok := find[lastOpReader](s)
	if !ok {
		return RunOp{}, false
	}
	return r.LastOp(run), true
}

// Measure runs op (an operation on run issued to s) and returns the
// exact virtual latency the stack charged for it, read from the topmost
// latency-tracking layer. tracked is false when no layer tracks
// operations. The latency is 0 when op never reached the tracking layer
// — a quota layer above it rejected first — even though that layer's
// ledger still holds the previous operation's latency: Measure compares
// operation counts before and after, never differences of sums.
func Measure(s Store, run string, op func() error) (lat float64, tracked bool, err error) {
	return NewMeter(s, run).Measure(op)
}

// A Meter is Measure for one run on one stack, resolved once: it holds
// the run's entry in the stack's topmost latency tracker, so measuring
// an operation walks no decorators and looks nothing up. The run's
// driver owns its Meter; a stack's layers never change once built, so a
// Meter stays valid for as long as the stack lives.
type Meter struct {
	entry *RunOp // nil when the stack tracks no latency
}

// NewMeter resolves run's ledger entry in the topmost latency-tracking
// layer of s.
func NewMeter(s Store, run string) Meter {
	if r, ok := find[lastOpReader](s); ok {
		return Meter{entry: r.runOp(run)}
	}
	return Meter{}
}

// Measure runs op and returns the latency it was charged, as Measure.
func (m Meter) Measure(op func() error) (lat float64, tracked bool, err error) {
	lat, err = measure(m.entry, op)
	return lat, m.entry != nil, err
}

// measure runs op and returns the latency booked into e for it: the
// entry's latency when op booked at least one operation, 0 otherwise
// (a nil e tracks nothing). The entry is read without a lock: only
// the run's driver — the caller — books into it.
func measure(e *RunOp, op func() error) (float64, error) {
	if e == nil {
		return 0, op()
	}
	before := e.Ops
	err := op()
	if e.Ops > before {
		return e.Latency, err
	}
	return 0, err
}

// RunOp is a per-run operation observation: Ops counts the run's
// operations that reached a latency-tracking layer, Latency is the
// virtual latency of the most recent one — the EXACT charged value.
// Executors that fold latency into a replayable virtual clock must
// consume these exact values: differencing a cumulative float total
// loses ulps depending on what the accumulator held before, which is
// invisible to the eye and fatal to bit-identical replay.
type RunOp struct {
	Ops     uint64
	Latency float64
}

// runHead starts every latency-tracking layer's per-run record: the
// run's name and its ledger entry. The rest of a record is what the
// run's operations need at that layer.
type runHead struct {
	name string
	op   RunOp
}

func (h *runHead) head() *runHead { return h }

// recentRuns is how many runs a layer finds without a lock: an executor
// drives a run and its lease run in turns.
const recentRuns = 2

// opLedger is the per-run record table a latency-tracking layer embeds:
// R is the layer's record type, which embeds runHead. A record is
// created at the run's first operation and never moves or goes away,
// so a layer that resolves a run once books through the record. Its
// mutex also guards the embedding layer's own bookkeeping.
//
// Records are found by name in the map under mu, or without a lock in
// the recent slots: a lookup that misses them takes mu and puts the
// record in the next slot, round robin.
type opLedger[R any, P interface {
	*R
	head() *runHead
}] struct {
	mu     sync.Mutex
	runs   map[string]P
	recent [recentRuns]atomic.Pointer[R]
	next   int // the recent slot the next miss fills
}

// recordLocked returns run's record, adding fresh() for a new run. The
// caller holds mu.
func (l *opLedger[R, P]) recordLocked(run string, fresh func() P) P {
	r := l.runs[run]
	if r == nil {
		if l.runs == nil {
			l.runs = make(map[string]P)
		}
		r = fresh()
		r.head().name = run
		l.runs[run] = r
	}
	return r
}

// lookup returns run's record from the recent slots without a lock,
// nil when none holds it.
func (l *opLedger[R, P]) lookup(run string) P {
	for i := range l.recent {
		if r := P(l.recent[i].Load()); r != nil && r.head().name == run {
			return r
		}
	}
	return nil
}

// missedLocked returns run's record after lookup missed it, and makes
// it recent. The caller holds mu.
func (l *opLedger[R, P]) missedLocked(run string, fresh func() P) P {
	r := l.recordLocked(run, fresh)
	l.recent[l.next].Store((*R)(r))
	l.next = (l.next + 1) % recentRuns
	return r
}

// book records one more operation and its exact latency; the ledger's
// mutex is held.
func (e *RunOp) book(lat float64) {
	e.Ops++
	e.Latency = lat
}

// LastOp returns the run's operation count and the exact latency of its
// most recent operation.
func (l *opLedger[R, P]) LastOp(run string) RunOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.runs[run]; r != nil {
		return r.head().op
	}
	return RunOp{}
}

// Latest returns the highest sequence number persisted for run, with
// ok=false when the run has no checkpoints.
func Latest(s Store, run string) (seq uint64, ok bool, err error) {
	seqs, err := s.List(run)
	if err != nil {
		return 0, false, err
	}
	if len(seqs) == 0 {
		return 0, false, nil
	}
	return seqs[len(seqs)-1], true, nil
}

// validRun rejects run IDs that cannot double as path components — the
// file store maps runs to directories, and the other implementations
// enforce the same rule so a run ID that works on one store works on
// all of them.
func validRun(run string) error {
	if run == "" {
		return fmt.Errorf("store: empty run ID")
	}
	for i := 0; i < len(run); i++ {
		if run[i] == '/' || run[i] == '\\' {
			return fmt.Errorf("store: run ID %q must be a single path component", run)
		}
	}
	if run == "." || run == ".." {
		return fmt.Errorf("store: run ID %q must be a single path component", run)
	}
	return nil
}
