package store

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// leaseOverMem builds a LeaseStore over a bare MemStore with a mutable
// virtual clock, returning the lease store, the mem, and a setter for
// the clock.
func leaseOverMem(cfg LeaseConfig) (*LeaseStore, *MemStore, func(float64)) {
	mem := NewMemStore()
	l := NewLeaseStore(mem, cfg)
	now := 0.0
	BindClock(l, "r", func() float64 { return now })
	return l, mem, func(t float64) { now = t }
}

func TestLeaseAcquireIdempotentPerInstance(t *testing.T) {
	l, mem, _ := leaseOverMem(LeaseConfig{Holder: "a", TTL: 10})
	st, err := l.Acquire("r")
	if err != nil || st.Epoch != 1 || st.Holder != "a" || st.Expiry != 10 {
		t.Fatalf("first Acquire = %+v, %v", st, err)
	}
	again, err := l.Acquire("r")
	if err != nil || again.Epoch != 1 {
		t.Fatalf("re-Acquire on same instance = %+v, %v; want cached epoch 1", again, err)
	}
	if got := l.Stats().Acquires; got != 1 {
		t.Fatalf("Acquires = %d, want 1 (idempotent)", got)
	}
	// The record rides the store under the derived lease run, not the
	// data run.
	if seqs, _ := mem.List("r"); len(seqs) != 0 {
		t.Fatalf("data run lists lease traffic: %v", seqs)
	}
	if seqs, _ := mem.List(LeaseRun("r")); len(seqs) != 1 || seqs[0] != leaseSeq {
		t.Fatalf("lease run listing = %v, want [%d]", seqs, leaseSeq)
	}
	if s := l.sessions["r"]; s == nil || s.epoch != 1 {
		t.Fatalf("session = %+v, want epoch 1", s)
	}
}

func TestLeaseHeldBlocksForeignAcquire(t *testing.T) {
	l, mem, _ := leaseOverMem(LeaseConfig{Holder: "a", TTL: 10})
	if _, err := l.Acquire("r"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	b := NewLeaseStore(mem, LeaseConfig{Holder: "b", TTL: 10})
	BindClock(b, "r", func() float64 { return 0 })
	if _, err := b.Acquire("r"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("foreign Acquire under live lease = %v, want ErrLeaseHeld", err)
	}
	// Takeover overrides the live lease and bumps the epoch.
	bt := NewLeaseStore(mem, LeaseConfig{Holder: "b", TTL: 10, Takeover: true})
	BindClock(bt, "r", func() float64 { return 0 })
	st, err := bt.Acquire("r")
	if err != nil || st.Epoch != 2 {
		t.Fatalf("takeover Acquire = %+v, %v; want epoch 2", st, err)
	}
}

func TestLeaseExpiryAndSameHolderReacquire(t *testing.T) {
	l, mem, setNow := leaseOverMem(LeaseConfig{Holder: "a", TTL: 5})
	if _, err := l.Acquire("r"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Expired lease: anyone may acquire without a takeover.
	setNow(7)
	b := NewLeaseStore(mem, LeaseConfig{Holder: "b", TTL: 5})
	BindClock(b, "r", func() float64 { return 7 })
	st, err := b.Acquire("r")
	if err != nil || st.Epoch != 2 || st.Expiry != 12 {
		t.Fatalf("Acquire after expiry = %+v, %v; want epoch 2 expiring t=12", st, err)
	}
	// Same holder identity re-acquires an unexpired lease freely (its
	// own restart), still bumping the epoch to fence the old instance.
	b2 := NewLeaseStore(mem, LeaseConfig{Holder: "b", TTL: 5})
	BindClock(b2, "r", func() float64 { return 8 })
	st2, err := b2.Acquire("r")
	if err != nil || st2.Epoch != 3 {
		t.Fatalf("same-holder re-Acquire = %+v, %v; want epoch 3", st2, err)
	}
}

func TestLeaseFencesZombieWrites(t *testing.T) {
	a, mem, _ := leaseOverMem(LeaseConfig{Holder: "a", TTL: 10})
	if _, err := a.Acquire("r"); err != nil {
		t.Fatalf("Acquire a: %v", err)
	}
	if err := a.Save("r", 1, []byte("a1")); err != nil {
		t.Fatalf("a Save: %v", err)
	}
	// b takes over (false crash detection of a).
	b := NewLeaseStore(mem, LeaseConfig{Holder: "b", TTL: 10, Takeover: true})
	BindClock(b, "r", func() float64 { return 1 })
	if _, err := b.Acquire("r"); err != nil {
		t.Fatalf("Acquire b: %v", err)
	}
	if err := b.Save("r", 2, []byte("b2")); err != nil {
		t.Fatalf("b Save: %v", err)
	}
	// Zombie a wakes up: reads pass, writes fence.
	if _, err := a.Load("r", 2); err != nil {
		t.Fatalf("zombie Load: %v (reads never fence)", err)
	}
	if err := a.Save("r", 3, []byte("a3")); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Save = %v, want ErrFenced", err)
	}
	if err := a.Delete("r", 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Delete = %v, want ErrFenced", err)
	}
	if got := a.Stats().Fenced; got != 2 {
		t.Fatalf("zombie Fenced stat = %d, want 2", got)
	}
	// The store never saw the zombie's write.
	if _, err := mem.Load("r", 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fenced write reached the store: %v", err)
	}
}

func TestLeaseRenewalPiggybacksOnSaves(t *testing.T) {
	l, mem, setNow := leaseOverMem(LeaseConfig{Holder: "a", TTL: 10})
	if _, err := l.Acquire("r"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Plenty of TTL left: no renewal.
	setNow(1)
	if err := l.Save("r", 1, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := l.Stats().Renewals; got != 0 {
		t.Fatalf("Renewals after early save = %d, want 0", got)
	}
	// Inside the renewal window (remaining 4 < TTL/2): renew to t+TTL.
	setNow(6)
	if err := l.Save("r", 2, []byte("y")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := l.Stats().Renewals; got != 1 {
		t.Fatalf("Renewals after windowed save = %d, want 1", got)
	}
	rec, _, err := NewLeaseStore(mem, LeaseConfig{}).readLease("r")
	if err != nil || rec.Expiry != 16 {
		t.Fatalf("renewed record = %+v, %v; want expiry t=16", rec, err)
	}
	// Even past its own expiry the holder renews as long as nobody
	// claimed the gap — the epoch still stands.
	setNow(30)
	if err := l.Save("r", 3, []byte("z")); err != nil {
		t.Fatalf("Save past expiry with unclaimed record: %v", err)
	}
	if got := l.Stats().Renewals; got != 2 {
		t.Fatalf("Renewals = %d, want 2", got)
	}
}

func TestLeaseSelfHealsVanishedRecord(t *testing.T) {
	l, mem, _ := leaseOverMem(LeaseConfig{Holder: "a", TTL: 10})
	if _, err := l.Acquire("r"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := mem.Delete(LeaseRun("r"), leaseSeq); err != nil {
		t.Fatalf("deleting lease record: %v", err)
	}
	if err := l.Save("r", 1, []byte("x")); err != nil {
		t.Fatalf("Save after record vanished: %v (want self-heal)", err)
	}
	rec, found, err := l.readLease("r")
	if err != nil || !found || rec.Epoch != 1 || rec.Holder != "a" {
		t.Fatalf("healed record = %+v, %v, %v", rec, found, err)
	}
}

func TestLeaseGuardsRequireAcquire(t *testing.T) {
	l, _, _ := leaseOverMem(LeaseConfig{Holder: "a"})
	if err := l.Save("r", 1, []byte("x")); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("Save without Acquire = %v, want ErrLeaseExpired", err)
	}
	if err := l.Delete("r", 1); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("Delete without Acquire = %v, want ErrLeaseExpired", err)
	}
	// Reads stay unguarded.
	if _, err := l.Load("r", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load without Acquire = %v, want plain ErrNotFound", err)
	}
}

func TestLeaseMalformedRecordDoesNotResetEpoch(t *testing.T) {
	l, mem, _ := leaseOverMem(LeaseConfig{Holder: "a", TTL: 10})
	if err := mem.Save(LeaseRun("r"), leaseSeq, []byte("not a lease record")); err != nil {
		t.Fatalf("planting garbage: %v", err)
	}
	if _, err := l.Acquire("r"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire over malformed record = %v, want a loud decode failure", err)
	}
}

// TestLeaseRejectsOversizedHolder pins that a holder too long for the
// record's u16 length field is refused before anything is written, so
// it cannot leave a malformed record that wedges later acquirers.
func TestLeaseRejectsOversizedHolder(t *testing.T) {
	l, mem, _ := leaseOverMem(LeaseConfig{Holder: strings.Repeat("h", math.MaxUint16+1), TTL: 10})
	if _, err := l.Acquire("r"); err == nil {
		t.Fatal("Acquire with an oversized holder succeeded")
	}
	if seqs, _ := mem.List(LeaseRun("r")); len(seqs) != 0 {
		t.Fatalf("oversized holder left lease records %v", seqs)
	}
	next := NewLeaseStore(mem, LeaseConfig{TTL: 10})
	if st, err := next.Acquire("r"); err != nil || st.Epoch != 1 || st.Holder != "exec" {
		t.Fatalf("later Acquire = %+v, %v; want epoch 1 for holder exec", st, err)
	}
}

func TestLeaseRecordRoundTrip(t *testing.T) {
	want := LeaseState{Epoch: 42, Holder: "worker-7", Expiry: 123.5}
	got, err := decodeLease(encodeLease(want))
	if err != nil || got != want {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("LEA"),
		encodeLease(want)[:10],
		append(encodeLease(want), 'x'),
		append([]byte("XXXX"), encodeLease(want)[4:]...),
	} {
		if _, err := decodeLease(bad); !errors.Is(err, errLeaseRecord) {
			t.Fatalf("decodeLease(%q) = %v, want errLeaseRecord", bad, err)
		}
	}
}

func TestAcquireLeaseWalksStack(t *testing.T) {
	mem := NewMemStore()
	l := NewLeaseStore(mem, LeaseConfig{Holder: "a", TTL: 10})
	ledger := NewQuotaLedger(Quota{MaxCheckpoints: 100, MaxBytes: 1 << 20}, func(run string) string { return run })
	var outer Store = NewQuotaStore(ledger, l)
	BindClock(outer, "r", func() float64 { return 0 })
	st, found, err := AcquireLease(outer, "r")
	if err != nil || !found || st.Epoch != 1 {
		t.Fatalf("AcquireLease through quota = %+v, %v, %v", st, found, err)
	}
	// No lease layer in the stack: found=false, run unfenced.
	if _, found, err := AcquireLease(mem, "r2"); found || err != nil {
		t.Fatalf("AcquireLease over bare mem = %v, %v; want absent", found, err)
	}
	if _, err := l.Acquire(LeaseRun("r")); err == nil {
		t.Fatal("Acquire on a lease run must fail")
	}
}

// TestLeaseOverQuorum pins the tentpole composition: the lease record
// persists through the same quorum machinery as the checkpoints it
// guards — replicated, partition-tolerant, and visible to every
// replica after a W=2 write.
func TestLeaseOverQuorum(t *testing.T) {
	netCfg := netsim.Config{
		Seed:       7,
		Latency:    0.05,
		Partitions: []netsim.Window{{Start: 0, End: 100, Isolated: []string{"s0"}}},
	}
	q, mems := quorumStack(netCfg, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	l := NewLeaseStore(q, LeaseConfig{Holder: "a", TTL: 50})
	now := 10.0
	BindClock(l, "r", func() float64 { return now })

	st, err := l.Acquire("r")
	if err != nil || st.Epoch != 1 {
		t.Fatalf("Acquire through partitioned quorum = %+v, %v", st, err)
	}
	if err := l.Save("r", 1, []byte("payload")); err != nil {
		t.Fatalf("guarded Save through quorum: %v", err)
	}
	// The isolated replica missed the lease record; the reachable ones
	// hold it.
	if seqs, _ := mems[0].List(LeaseRun("r")); len(seqs) != 0 {
		t.Fatalf("isolated replica holds lease record: %v", seqs)
	}
	for i := 1; i < 3; i++ {
		if seqs, _ := mems[i].List(LeaseRun("r")); len(seqs) != 1 {
			t.Fatalf("replica %d lease run listing = %v, want 1 record", i, seqs)
		}
	}
}
