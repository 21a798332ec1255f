package store

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// ErrInjected is wrapped by every fault the FaultStore injects, so
// callers can classify "the drill hit me" (retryable) apart from real
// I/O errors. ErrInjectedWrite and ErrInjectedRead refine it per
// operation.
var (
	ErrInjected      = errors.New("store: injected fault")
	ErrInjectedWrite = fmt.Errorf("%w: write failed", ErrInjected)
	ErrInjectedRead  = fmt.Errorf("%w: read failed", ErrInjected)
)

// FaultPlan parameterizes the deterministic fault injector. All
// probabilities are per-operation in [0, 1]; a zero plan injects
// nothing.
//
// Keyed-stream contract (the determinism guarantee): every operation —
// Save, Load, List and Delete alike — draws its injected latency and
// fault decision from a private stream derived from the plan seed and
// the operation's key, never from shared mutable stream state. The
// draw order within an operation is fixed: latency first, then the
// fault decision, then any fault-shaping draws (torn-write cut point,
// lose-old victim). The key is (op kind, run, seq, attempt), where
// attempt counts how many times this exact (kind, run, seq) operation
// has been issued to this injector instance. The injected outcome is
// therefore a pure function of the logical operation: it does not
// depend on how operations from different runs interleave, and an
// extra operation on one key never shifts another key's draws. A
// resumed run re-observes the outcomes a fresh injector dealt the
// uninterrupted run, because process restarts reset the attempt
// counters exactly like the uninterrupted run's first encounter.
type FaultPlan struct {
	// Seed drives every injection decision.
	Seed uint64
	// WriteFail is the probability a Save fails cleanly: the error is
	// reported and nothing is persisted. Models a full disk or a lost
	// connection caught before commit.
	WriteFail float64
	// TornWrite is the probability a Save persists only a prefix of the
	// payload AND reports failure. Models a crash mid-write on a store
	// without atomic rename: a corrupt artifact now occupies the slot.
	// Detection is the codec layer's job — compose Checked(FaultStore).
	// WriteFail and TornWrite split one uniform draw, so their sum must
	// not exceed 1.
	TornWrite float64
	// LoseOld is the probability that a successful Save is followed by
	// the silent loss of one previously persisted checkpoint of the same
	// run (partial-state loss: retention bugs, eviction, bit rot taking
	// out an old file). The executor must then fall back further on
	// resume.
	LoseOld float64
	// ReadFail is the probability a Load fails transiently.
	ReadFail float64
	// MeanLatency, when positive, adds an Exp-distributed virtual
	// latency to EVERY operation — Save, Load, List and Delete —
	// accumulated in Stats.Latency and readable per operation through
	// LastOp. Nothing sleeps: the executor folds each operation's
	// latency into its virtual clock accounting if it cares, and tests
	// read it to pin determinism.
	MeanLatency float64
	// Deprecated: LogicalKeys is ignored. Every plan keys its draws by
	// logical operation; see the type comment.
	LogicalKeys bool
}

// FaultStats counts what the injector did.
type FaultStats struct {
	// Ops is the number of operations seen (Save, Load, List, Delete).
	Ops uint64
	// WriteFails, TornWrites, LostOld and ReadFails count injections.
	WriteFails, TornWrites, LostOld, ReadFails uint64
	// Latency is the total injected virtual latency across all runs.
	Latency float64
}

// Fault-stream op kinds, part of the keying contract: each kind
// keys a disjoint stream family so loads can never perturb save
// outcomes.
const (
	opSave uint64 = iota + 1
	opLoad
	opList
	opDelete
)

// FaultStore wraps an inner store with deterministic, seeded fault
// injection; the codec layer Spec puts above it detects the tears.
type FaultStore struct {
	inner Store
	plan  FaultPlan

	opLedger // its mutex guards the fields below too
	stats    FaultStats
	attempts map[faultOpKey]uint64
}

// faultOpKey identifies a logical operation for attempt counting.
type faultOpKey struct {
	kind uint64
	run  string
	seq  uint64
}

// NewFaultStore wraps inner with the given fault plan.
func NewFaultStore(inner Store, plan FaultPlan) *FaultStore {
	return &FaultStore{
		inner:    inner,
		plan:     plan,
		attempts: make(map[faultOpKey]uint64),
	}
}

// Stats returns a snapshot of the injection counters.
func (f *FaultStore) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Unwrap exposes the inner store for capability discovery.
func (f *FaultStore) Unwrap() Store { return f.inner }

// opStream returns the keyed stream for an operation, advancing its
// attempt count, and draws and books the operation's injected latency.
// Draw order within an operation is fixed (latency first, then the
// fault decision), which is part of the determinism contract.
func (f *FaultStore) opStream(kind uint64, run string, seq uint64) *rng.Stream {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	k := faultOpKey{kind: kind, run: run, seq: seq}
	f.attempts[k]++
	s := rng.Derive(f.plan.Seed, kind, rng.HashString(run), seq, f.attempts[k])
	var lat float64
	if f.plan.MeanLatency > 0 {
		lat = s.ExpFloat64() * f.plan.MeanLatency
		f.stats.Latency += lat
	}
	f.recordLocked(run, lat)
	return s
}

// Save injects write faults around the inner Save.
func (f *FaultStore) Save(run string, seq uint64, payload []byte) error {
	s := f.opStream(opSave, run, seq)
	u := s.Float64()
	switch {
	case u < f.plan.WriteFail:
		f.count(func(st *FaultStats) { st.WriteFails++ })
		return fmt.Errorf("save %s/%d: %w", run, seq, ErrInjectedWrite)
	case u < f.plan.WriteFail+f.plan.TornWrite:
		// Persist a strict prefix — at least one byte short, possibly
		// almost nothing — and report failure, as a mid-write crash
		// would.
		cut := 0
		if len(payload) > 1 {
			cut = 1 + s.IntN(len(payload)-1)
		}
		if err := f.inner.Save(run, seq, payload[:cut]); err != nil {
			return err
		}
		f.count(func(st *FaultStats) { st.TornWrites++ })
		return fmt.Errorf("save %s/%d: torn after %d of %d bytes: %w", run, seq, cut, len(payload), ErrInjectedWrite)
	}
	if err := f.inner.Save(run, seq, payload); err != nil {
		return err
	}
	if s.Float64() < f.plan.LoseOld {
		f.loseOld(run, seq, s)
	}
	return nil
}

// loseOld deletes one keyed-chosen checkpoint with sequence below seq.
func (f *FaultStore) loseOld(run string, seq uint64, s *rng.Stream) {
	seqs, err := f.inner.List(run)
	if err != nil {
		return
	}
	older := seqs[:0]
	for _, q := range seqs {
		if q < seq {
			older = append(older, q)
		}
	}
	if len(older) == 0 {
		return
	}
	victim := older[s.IntN(len(older))]
	if f.inner.Delete(run, victim) == nil {
		f.count(func(st *FaultStats) { st.LostOld++ })
	}
}

// Load injects read faults around the inner Load.
func (f *FaultStore) Load(run string, seq uint64) ([]byte, error) {
	s := f.opStream(opLoad, run, seq)
	if s.Float64() < f.plan.ReadFail {
		f.count(func(st *FaultStats) { st.ReadFails++ })
		return nil, fmt.Errorf("load %s/%d: %w", run, seq, ErrInjectedRead)
	}
	return f.inner.Load(run, seq)
}

// List pays injected latency like every other operation (enumeration
// round-trips to the store too); the interesting failure modes (missing
// or corrupt entries) are injected through Save/Load already. List
// operations key with seq 0.
func (f *FaultStore) List(run string) ([]uint64, error) {
	f.opStream(opList, run, 0)
	return f.inner.List(run)
}

// Delete pays injected latency; no faults are injected (deletion
// failure modes are covered by LoseOld on the save path).
func (f *FaultStore) Delete(run string, seq uint64) error {
	f.opStream(opDelete, run, seq)
	return f.inner.Delete(run, seq)
}

func (f *FaultStore) count(fn func(*FaultStats)) {
	f.mu.Lock()
	fn(&f.stats)
	f.mu.Unlock()
}

var _ Store = (*FaultStore)(nil)
