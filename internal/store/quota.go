package store

import (
	"errors"
	"fmt"
	"sync"
)

// ErrQuota reports a Save rejected because it would exceed the tenant's
// retained-checkpoint budget. It is a PERMANENT error class: retrying
// the identical save cannot succeed until retained state is deleted, so
// executors must not spin on it — they degrade (replan, fail over, or
// run checkpoint-free) instead.
var ErrQuota = errors.New("store: tenant quota exceeded")

// Quota is a per-tenant budget on RETAINED state, not on I/O: a Save
// replacing an existing (run, seq) entry is charged only the size
// delta, and Deletes refund. Charging retained state (rather than
// counting operations) keeps quota decisions history-independent — a
// killed-and-resumed run re-saving the checkpoint it restored charges
// exactly what the uninterrupted run charged, which is what keeps
// kill/resume journals bit-identical under quota faults.
type Quota struct {
	// MaxBytes caps retained payload bytes per tenant; 0 = unlimited.
	MaxBytes uint64
	// MaxCheckpoints caps retained checkpoints per tenant; 0 = unlimited.
	MaxCheckpoints int
}

// QuotaLedger is the accounting shared by every QuotaStore wrapper
// bound to it: per-tenant retained bytes and counts. The ledger lives
// as long as the storage service it models — in multi-invocation drills
// one ledger spans all invocations while fault-injecting wrappers are
// rebuilt per invocation, mirroring a process restart against a durable
// quota service.
type QuotaLedger struct {
	quota    Quota
	tenantOf func(run string) string

	mu    sync.Mutex
	used  map[string]uint64
	count map[string]int
	sizes map[string]map[uint64]uint64 // run → seq → retained payload size
}

// NewQuotaLedger creates a ledger enforcing q. tenantOf maps run IDs to
// tenants; nil makes every run its own tenant (budgets are then
// per-run, which also keeps concurrent tenants' quota decisions
// independent of how their operations interleave).
func NewQuotaLedger(q Quota, tenantOf func(run string) string) *QuotaLedger {
	return &QuotaLedger{
		quota:    q,
		tenantOf: tenantOf,
		used:     make(map[string]uint64),
		count:    make(map[string]int),
		sizes:    make(map[string]map[uint64]uint64),
	}
}

func (l *QuotaLedger) tenant(run string) string {
	if l.tenantOf == nil {
		return run
	}
	return l.tenantOf(run)
}

// admit checks whether replacing (run, seq) with size bytes fits the
// budget, without committing.
func (l *QuotaLedger) admit(run string, seq uint64, size uint64) error {
	tenant := l.tenant(run)
	l.mu.Lock()
	defer l.mu.Unlock()
	old, had := l.sizes[run][seq]
	newUsed := l.used[tenant] - old + size
	newCount := l.count[tenant]
	if !had {
		newCount++
	}
	if l.quota.MaxBytes > 0 && newUsed > l.quota.MaxBytes {
		return fmt.Errorf("save %s/%d: %d retained bytes would exceed tenant %q budget %d: %w",
			run, seq, newUsed, tenant, l.quota.MaxBytes, ErrQuota)
	}
	if l.quota.MaxCheckpoints > 0 && newCount > l.quota.MaxCheckpoints {
		return fmt.Errorf("save %s/%d: %d retained checkpoints would exceed tenant %q budget %d: %w",
			run, seq, newCount, tenant, l.quota.MaxCheckpoints, ErrQuota)
	}
	return nil
}

// commit records a successful save of (run, seq) with size bytes.
func (l *QuotaLedger) commit(run string, seq uint64, size uint64) {
	tenant := l.tenant(run)
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.sizes[run]
	if m == nil {
		m = make(map[uint64]uint64)
		l.sizes[run] = m
	}
	old, had := m[seq]
	m[seq] = size
	l.used[tenant] += size - old
	if !had {
		l.count[tenant]++
	}
}

// release refunds a deleted (run, seq).
func (l *QuotaLedger) release(run string, seq uint64) {
	tenant := l.tenant(run)
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, had := l.sizes[run][seq]; had {
		delete(l.sizes[run], seq)
		l.used[tenant] -= old
		l.count[tenant]--
	}
}

// QuotaStore enforces a ledger's budgets in front of an inner store.
// Spec composes it OUTERMOST — Quota(Lease(…(Checked(Fault(…))))) —
// so budgets are charged on the caller's payload bytes and rejections
// happen before any inner layer is touched.
//
// Accounting is billing-level: a save is charged only when the inner
// store reports success, so clean write failures cost nothing, torn-
// write debris below the quota layer is not billed, and silent losses
// injected by lower layers (FaultPlan.LoseOld) are not refunded. The
// admit/commit pair is not atomic across concurrent runs of ONE tenant;
// per-run tenants (the default) make the check exact.
type QuotaStore struct {
	ledger *QuotaLedger
	inner  Store
}

// NewQuotaStore binds a ledger to an inner store.
func NewQuotaStore(ledger *QuotaLedger, inner Store) *QuotaStore {
	return &QuotaStore{ledger: ledger, inner: inner}
}

// Unwrap exposes the inner store for capability discovery.
func (q *QuotaStore) Unwrap() Store { return q.inner }

// Save admits the payload against the tenant budget, then delegates.
func (q *QuotaStore) Save(run string, seq uint64, payload []byte) error {
	if err := q.ledger.admit(run, seq, uint64(len(payload))); err != nil {
		return err
	}
	if err := q.inner.Save(run, seq, payload); err != nil {
		return err
	}
	q.ledger.commit(run, seq, uint64(len(payload)))
	return nil
}

// Load delegates.
func (q *QuotaStore) Load(run string, seq uint64) ([]byte, error) {
	return q.inner.Load(run, seq)
}

// List delegates.
func (q *QuotaStore) List(run string) ([]uint64, error) {
	return q.inner.List(run)
}

// Delete delegates and refunds the tenant on success.
func (q *QuotaStore) Delete(run string, seq uint64) error {
	if err := q.inner.Delete(run, seq); err != nil {
		return err
	}
	q.ledger.release(run, seq)
	return nil
}

var _ Store = (*QuotaStore)(nil)
