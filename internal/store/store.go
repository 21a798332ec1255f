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
// implement it through their embedded opLedger.
type lastOpReader interface {
	LastOp(run string) RunOp
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
	r, tracked := find[lastOpReader](s)
	lat, err = measure(r, run, op)
	return lat, tracked, err
}

// measure is Measure against a tracking layer the caller resolved once
// (a nil r tracks nothing): layers that measure an inner stack on every
// operation look its tracker up at construction, since a stack's layers
// never change once it is built.
func measure(r lastOpReader, run string, op func() error) (float64, error) {
	if r == nil {
		return 0, op()
	}
	before := r.LastOp(run)
	err := op()
	if after := r.LastOp(run); after.Ops > before.Ops {
		return after.Latency, err
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

// opLedger is the per-run operation ledger a latency-tracking layer
// embeds. Its mutex also guards the embedding layer's own bookkeeping.
type opLedger struct {
	mu   sync.Mutex
	runs map[string]*RunOp
}

// entryLocked returns run's ledger entry, adding an empty one for a new
// run; the caller holds mu. Entries never move or go away, so a layer
// that resolves a run once books its operations through the pointer.
func (l *opLedger) entryLocked(run string) *RunOp {
	e := l.runs[run]
	if e == nil {
		if l.runs == nil {
			l.runs = make(map[string]*RunOp)
		}
		e = new(RunOp)
		l.runs[run] = e
	}
	return e
}

// book records one more operation and its exact latency; the ledger's
// mutex is held.
func (e *RunOp) book(lat float64) {
	e.Ops++
	e.Latency = lat
}

// record books one operation of run and its exact latency.
func (l *opLedger) record(run string, lat float64) {
	l.mu.Lock()
	l.entryLocked(run).book(lat)
	l.mu.Unlock()
}

// LastOp returns the run's operation count and the exact latency of its
// most recent operation.
func (l *opLedger) LastOp(run string) RunOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.runs[run]; e != nil {
		return *e
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
