package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// ErrFenced reports a write rejected because a higher-epoch lease exists
// for the run: another executor legitimately took the run over, and this
// writer is a zombie — an executor that stalled (partition, long pause,
// crash misdetection) past its lease and woke up still believing it owns
// the run. Fenced writes MUST abort the execution (ClassifyStoreError
// marks the error fatal): retrying or degrading would interleave two
// executors' journal histories on one store.
var ErrFenced = errors.New("store: operation fenced by a higher-epoch lease")

// ErrLeaseExpired reports a guarded operation whose lease could not be
// confirmed: the session expired and renewal failed, the lease record
// was unreadable, or no lease was ever acquired for the run. Unlike
// ErrFenced nothing proves another writer exists, so the error is
// transient — retrying re-validates, and a renewal that rides a healed
// partition succeeds.
var ErrLeaseExpired = errors.New("store: lease expired or unconfirmed")

// ErrLeaseHeld reports an acquisition attempt while another holder's
// lease is still live on the virtual clock. The acquirer may wait for
// expiry, or — when its failure detector says the holder is dead —
// re-acquire with Takeover, which bumps the epoch and fences the old
// holder rather than trusting the detector.
var ErrLeaseHeld = errors.New("store: lease held by another executor")

// leaseSuffix maps a run to its lease run: lease records persist through
// the same store stack (same codec, same quorum machinery) as the
// checkpoints they guard, under a derived run ID so lease traffic stays
// out of the data run's listings and per-run op ledgers.
const leaseSuffix = "~lease"

// leaseSeq is the fixed sequence number of the single current-lease
// record inside a lease run. Overwriting one well-known key keeps
// acquisition to one read + one write and renewal to one write.
const leaseSeq = 1

// LeaseRun returns the derived run ID holding run's lease record.
func LeaseRun(run string) string { return run + leaseSuffix }

// isLeaseRun reports whether run is itself a lease run; operations on
// lease runs pass through unguarded (they ARE the lease machinery).
func isLeaseRun(run string) bool { return strings.HasSuffix(run, leaseSuffix) }

// LeaseConfig parameterizes a LeaseStore.
type LeaseConfig struct {
	// Holder identifies this executor in lease records ("exec" when
	// empty). Two processes contending on one store must use distinct
	// holders — the read-back after an acquisition write distinguishes
	// winners by holder identity.
	Holder string
	// TTL is the lease duration in virtual time (default 10). A holder
	// that performs no guarded write for a full TTL loses its claim: the
	// next acquirer may take the run without a takeover. A guarded write
	// renews the lease once less than TTL/2 remains: one piggy-backed
	// store write, never a background timer.
	TTL float64
	// Takeover lets Acquire bump the epoch even while another holder's
	// lease is unexpired — the "my failure detector says the owner is
	// dead" path. Safety never depends on the detector being right:
	// a takeover fences the old holder, it does not trust it to be gone.
	Takeover bool
}

func (c LeaseConfig) holder() string {
	if c.Holder == "" {
		return "exec"
	}
	return c.Holder
}

func (c LeaseConfig) ttl() float64 {
	if c.TTL <= 0 {
		return 10
	}
	return c.TTL
}

// LeaseState is a decoded lease record: the fencing epoch, who holds it,
// and when it expires on the virtual clock.
type LeaseState struct {
	Epoch  uint64
	Holder string
	Expiry float64
}

// LeaseStats counts lease-protocol activity.
type LeaseStats struct {
	// Acquires counts epoch bumps written by this instance.
	Acquires uint64
	// Renewals counts lease-record rewrites piggy-backed on saves.
	Renewals uint64
	// Validations counts guarded operations that re-read the lease
	// record before writing.
	Validations uint64
	// Fenced counts guarded operations rejected with ErrFenced.
	Fenced uint64
}

// leaseSession is this instance's claim on one run, and the name of
// the lease run its record lives under.
type leaseSession struct {
	epoch  uint64
	expiry float64
	lrun   string
}

// LeaseStore wraps a store with epoch-fenced write leases. One
// LeaseStore instance models one executor process: Acquire bumps the
// run's epoch exactly once per instance (a resumed run is a NEW process
// and therefore a NEW instance, so resume re-acquires a higher epoch),
// and every guarded Save/Delete re-reads the lease record first —
// a higher epoch means another executor took over, and the operation
// fails with ErrFenced instead of interleaving writes. An invocation
// that re-enters Execute on the SAME instance (a zombie waking up)
// keeps its stale session and is fenced on its first write.
//
// The lease record is an ordinary checkpoint of the derived lease run
// (LeaseRun), persisted through the wrapped stack — it rides the same
// codec and quorum machinery as the data it guards, and its expiry is
// virtual time read from the clock bound via BindClock. Lease traffic
// is keyed under the lease run, so the data run's op ledgers, latency
// accounting and network attempt counters never observe it: leases are
// invisible to the journal and to replay identity.
//
// Concurrent-acquisition arbitration is read-back-based: an acquirer
// writes its record and re-reads it; whoever's record survives (the
// store is last-writer-wins) owns the epoch and the loser sees ErrFenced.
// Under the deterministic simulator operations serialize, so the
// read-back always observes the winner.
type LeaseStore struct {
	inner Store
	cfg   LeaseConfig

	mu       sync.Mutex
	clocks   map[string]func() float64
	sessions map[string]*leaseSession
	stats    LeaseStats
}

// NewLeaseStore wraps inner with lease fencing.
func NewLeaseStore(inner Store, cfg LeaseConfig) *LeaseStore {
	return &LeaseStore{
		inner:    inner,
		cfg:      cfg,
		clocks:   make(map[string]func() float64),
		sessions: make(map[string]*leaseSession),
	}
}

// Unwrap exposes the inner store for capability discovery.
func (l *LeaseStore) Unwrap() Store { return l.inner }

// Stats returns a snapshot of lease-protocol counters.
func (l *LeaseStore) Stats() LeaseStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// BindClock keeps the run's virtual-time source for expiry arithmetic
// and propagates it to the inner stack under the lease run's key, so
// time-dependent layers (RemoteStore partition evaluation) see lease
// traffic at the same virtual time as the data traffic it rides with.
// The generic BindClock walker separately binds the data run on the
// inner stack via Unwrap.
func (l *LeaseStore) BindClock(run string, now func() float64) {
	l.mu.Lock()
	l.clocks[run] = now
	l.mu.Unlock()
	if !isLeaseRun(run) {
		BindClock(l.inner, LeaseRun(run), now)
	}
}

// now reads run's virtual clock; an unbound run reads time zero.
func (l *LeaseStore) now(run string) float64 {
	l.mu.Lock()
	clock := l.clocks[run]
	l.mu.Unlock()
	if clock == nil {
		return 0
	}
	return clock()
}

// Lease-record layout (little-endian):
//
//	magic "LEAS" | version u8 | epoch u64 | expiry f64 bits | hlen u16 | holder
const (
	leaseMagic   = "LEAS"
	leaseVersion = 1
)

// errLeaseRecord reports a lease record that decoded to garbage — a
// version skew, not bit rot (the codec layer below already CRC-checks).
// It is NOT treated as absence: resetting the epoch on a record we
// cannot read could un-fence a zombie.
var errLeaseRecord = errors.New("store: malformed lease record")

func encodeLease(st LeaseState) []byte {
	out := make([]byte, 0, len(leaseMagic)+1+8+8+2+len(st.Holder))
	out = append(out, leaseMagic...)
	out = append(out, leaseVersion)
	out = binary.LittleEndian.AppendUint64(out, st.Epoch)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.Expiry))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(st.Holder)))
	return append(out, st.Holder...)
}

func decodeLease(data []byte) (LeaseState, error) {
	rec, err := parseLease(data)
	if err != nil {
		return LeaseState{}, err
	}
	return rec.state(), nil
}

// leaseRecord is a parsed lease record whose holder aliases the bytes
// it was parsed from, so validating a guarded write copies nothing.
type leaseRecord struct {
	epoch  uint64
	expiry float64
	holder []byte
}

func (r leaseRecord) state() LeaseState {
	return LeaseState{Epoch: r.epoch, Holder: string(r.holder), Expiry: r.expiry}
}

func parseLease(data []byte) (leaseRecord, error) {
	head := len(leaseMagic) + 1 + 8 + 8 + 2
	if len(data) < head || string(data[:len(leaseMagic)]) != leaseMagic {
		return leaseRecord{}, errLeaseRecord
	}
	p := len(leaseMagic)
	if data[p] != leaseVersion {
		return leaseRecord{}, fmt.Errorf("%w: version %d", errLeaseRecord, data[p])
	}
	p++
	rec := leaseRecord{epoch: binary.LittleEndian.Uint64(data[p:])}
	p += 8
	rec.expiry = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
	p += 8
	hlen := int(binary.LittleEndian.Uint16(data[p:]))
	p += 2
	if len(data) != head+hlen {
		return leaseRecord{}, fmt.Errorf("%w: holder length %d does not match record size %d", errLeaseRecord, hlen, len(data))
	}
	rec.holder = data[p:]
	return rec, nil
}

// leaseOpRetries is the extra-attempt budget lease reads and writes get
// against transient remote timeouts, mirroring the executor's resume
// listing: each retry is an independent keyed network draw, so a lossy
// link does not turn every acquisition into a coin flip, while a
// partition still fails deterministically after the budget.
const leaseOpRetries = 4

// readLease loads and decodes run's current lease record. found=false
// means the record definitively does not exist (epoch zero).
func (l *LeaseStore) readLease(run string) (st LeaseState, found bool, err error) {
	rec, found, err := l.loadLease(LeaseRun(run))
	if !found || err != nil {
		return LeaseState{}, false, err
	}
	return rec.state(), true, nil
}

// loadLease loads and parses the record of the lease run lrun.
// found=false means the record definitively does not exist.
func (l *LeaseStore) loadLease(lrun string) (rec leaseRecord, found bool, err error) {
	data, err := l.inner.Load(lrun, leaseSeq)
	for extra := 0; errors.Is(err, ErrTimeout) && extra < leaseOpRetries; extra++ {
		data, err = l.inner.Load(lrun, leaseSeq)
	}
	if errors.Is(err, ErrNotFound) {
		return leaseRecord{}, false, nil
	}
	if err != nil {
		return leaseRecord{}, false, err
	}
	rec, err = parseLease(data)
	if err != nil {
		return leaseRecord{}, false, err
	}
	return rec, true, nil
}

// writeLease persists st as the current record of the lease run lrun.
func (l *LeaseStore) writeLease(lrun string, st LeaseState) error {
	err := l.inner.Save(lrun, leaseSeq, encodeLease(st))
	for extra := 0; errors.Is(err, ErrTimeout) && extra < leaseOpRetries; extra++ {
		err = l.inner.Save(lrun, leaseSeq, encodeLease(st))
	}
	return err
}

// Acquire claims run for this instance, bumping the persisted epoch
// past whatever is recorded. It is idempotent per instance: a second
// call returns the session already held without touching the store —
// which is exactly what makes a zombie detectable. A NEW process
// resuming the run constructs a new LeaseStore and its Acquire writes
// a higher epoch, fencing every older session's writes.
//
// A live lease under a different holder blocks acquisition with
// ErrLeaseHeld unless the config asks for a Takeover; an expired one,
// or one held by the same holder identity (a restart of ourselves),
// never blocks.
func (l *LeaseStore) Acquire(run string) (LeaseState, error) {
	if err := validRun(run); err != nil {
		return LeaseState{}, err
	}
	if isLeaseRun(run) {
		return LeaseState{}, fmt.Errorf("store: acquire %s: lease runs cannot themselves be leased", run)
	}
	// The record's holder length is a u16: a longer holder would persist
	// a record no decoder accepts, wedging every later Acquire of run.
	if h := l.cfg.holder(); len(h) > math.MaxUint16 {
		return LeaseState{}, fmt.Errorf("store: acquire %s: holder is %d bytes, the lease record holds at most %d", run, len(h), math.MaxUint16)
	}
	l.mu.Lock()
	if s := l.sessions[run]; s != nil {
		held := LeaseState{Epoch: s.epoch, Holder: l.cfg.holder(), Expiry: s.expiry}
		l.mu.Unlock()
		return held, nil
	}
	l.mu.Unlock()

	now := l.now(run)
	cur, found, err := l.readLease(run)
	if err != nil {
		return LeaseState{}, fmt.Errorf("store: acquire %s: reading lease record: %w", run, err)
	}
	if found && cur.Holder != l.cfg.holder() && now < cur.Expiry && !l.cfg.Takeover {
		return LeaseState{}, fmt.Errorf("store: acquire %s: %w (holder %q, epoch %d, expires t=%g, now t=%g)",
			run, ErrLeaseHeld, cur.Holder, cur.Epoch, cur.Expiry, now)
	}
	next := LeaseState{Epoch: cur.Epoch + 1, Holder: l.cfg.holder(), Expiry: now + l.cfg.ttl()}
	lrun := LeaseRun(run)
	if err := l.writeLease(lrun, next); err != nil {
		return LeaseState{}, fmt.Errorf("store: acquire %s: writing lease record: %w", run, err)
	}
	// Read-back arbitration: a racing acquirer may have overwritten the
	// record between our write and now — whoever's record survived owns
	// the epoch.
	got, found, err := l.readLease(run)
	if err != nil {
		return LeaseState{}, fmt.Errorf("store: acquire %s: verifying lease record: %w", run, err)
	}
	if !found || got.Epoch != next.Epoch || got.Holder != next.Holder {
		l.mu.Lock()
		l.stats.Fenced++
		l.mu.Unlock()
		return LeaseState{}, fmt.Errorf("store: acquire %s: %w (lost the acquisition race to holder %q, epoch %d)",
			run, ErrFenced, got.Holder, got.Epoch)
	}
	l.mu.Lock()
	l.sessions[run] = &leaseSession{epoch: next.Epoch, expiry: next.Expiry, lrun: lrun}
	l.stats.Acquires++
	l.mu.Unlock()
	return next, nil
}

// guard validates this instance's claim before a write: re-read the
// lease record, fence on a higher epoch (or a same-epoch foreign
// holder — a lost acquisition race), self-heal a vanished record, and
// renew when the remaining TTL runs low. Renewal failure only fails the
// operation when the session has actually expired — an unexpired lease
// is still good, and the next guarded write retries the renewal.
func (l *LeaseStore) guard(op, run string, seq uint64) error {
	l.mu.Lock()
	s, clock := l.sessions[run], l.clocks[run]
	if s != nil {
		l.stats.Validations++
	}
	l.mu.Unlock()
	if s == nil {
		return fmt.Errorf("store: %s %s/%d: %w (no lease acquired for run)", op, run, seq, ErrLeaseExpired)
	}
	now := 0.0
	if clock != nil {
		now = clock()
	}
	holder := l.cfg.holder()
	cur, found, err := l.loadLease(s.lrun)
	if err != nil {
		return fmt.Errorf("store: %s %s/%d: validating lease: %w: %w", op, run, seq, ErrLeaseExpired, err)
	}
	if found && (cur.epoch > s.epoch || (cur.epoch == s.epoch && string(cur.holder) != holder)) {
		l.mu.Lock()
		l.stats.Fenced++
		l.mu.Unlock()
		return fmt.Errorf("store: %s %s/%d: %w (holder %q epoch %d supersedes ours, epoch %d)",
			op, run, seq, ErrFenced, cur.holder, cur.epoch, s.epoch)
	}
	// Our epoch stands. Renew when the record is gone (self-heal), the
	// persisted expiry has passed (nobody claimed the gap), or the
	// remaining TTL is inside the renewal window.
	if !found || now >= cur.expiry-l.cfg.ttl()/2 {
		renewed := LeaseState{Epoch: s.epoch, Holder: holder, Expiry: now + l.cfg.ttl()}
		if werr := l.writeLease(s.lrun, renewed); werr != nil {
			if found && now < cur.expiry {
				// Lease still live; renewal was advisory.
				return nil
			}
			return fmt.Errorf("store: %s %s/%d: renewing lease: %w: %w", op, run, seq, ErrLeaseExpired, werr)
		}
		l.mu.Lock()
		l.stats.Renewals++
		s.expiry = renewed.Expiry
		l.mu.Unlock()
	}
	return nil
}

// Save performs a guarded write: lease validation (and piggy-backed
// renewal) first, then the inner save. Writes to lease runs pass
// through — they are the lease machinery itself.
func (l *LeaseStore) Save(run string, seq uint64, payload []byte) error {
	if isLeaseRun(run) {
		return l.inner.Save(run, seq, payload)
	}
	if err := l.guard("save", run, seq); err != nil {
		return err
	}
	return l.inner.Save(run, seq, payload)
}

// Load passes through: reads never fence. A zombie may read freely —
// it is the write that would corrupt history, and that is what fences.
func (l *LeaseStore) Load(run string, seq uint64) ([]byte, error) {
	return l.inner.Load(run, seq)
}

// List passes through.
func (l *LeaseStore) List(run string) ([]uint64, error) {
	return l.inner.List(run)
}

// Delete performs a guarded delete.
func (l *LeaseStore) Delete(run string, seq uint64) error {
	if isLeaseRun(run) {
		return l.inner.Delete(run, seq)
	}
	if err := l.guard("delete", run, seq); err != nil {
		return err
	}
	return l.inner.Delete(run, seq)
}

// AcquireLease walks the decorator stack of s for a LeaseStore and
// ensures a lease on run, returning the held state. found=false means
// the stack carries no lease layer — the caller runs unfenced, which is
// the pre-lease behavior.
func AcquireLease(s Store, run string) (st LeaseState, found bool, err error) {
	ls, found := find[*LeaseStore](s)
	if !found {
		return LeaseState{}, false, nil
	}
	st, err = ls.Acquire(run)
	return st, true, err
}

var (
	_ Store       = (*LeaseStore)(nil)
	_ ClockBinder = (*LeaseStore)(nil)
	_ Unwrapper   = (*LeaseStore)(nil)
)
