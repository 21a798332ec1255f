package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/store"
)

// TestExecuteFencesZombie drives the full multi-writer drill at the
// executor level: A crashes mid-run, B takes the run over with a
// higher epoch, zombie A wakes up and is fenced on its first write,
// and the survivor's journal is bit-identical to an uncontended run —
// the lease layer is invisible to the journal.
func TestExecuteFencesZombie(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 77, 1) }

	// Uncontended reference on a lease-free store.
	ref, err := Execute(w, src(), Options{Store: store.Checked(store.NewMemStore()), Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}

	// leased builds a fresh stack over the one shared mem store: each
	// call is a new executor process.
	mem := store.NewMemStore()
	leased := func(lease store.LeaseConfig) store.Store {
		st, err := store.Spec{Backends: []store.Store{mem}, Lease: &lease}.Build()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Executor A acquires epoch 1 and crashes after two saves, leaving
	// segments for B and (crucially) one more beyond B's kill point so
	// the zombie still has a write to attempt.
	a := leased(store.LeaseConfig{Holder: "a", TTL: 1e9})
	resA, err := Execute(w, src(), Options{Store: a, Downtime: 1, CrashAfterSaves: 2})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("A = %v, want ErrCrashed", err)
	}
	if resA.Epoch != 1 {
		t.Fatalf("A epoch = %d, want 1", resA.Epoch)
	}

	// A polite B (no takeover) is blocked while A's lease is live.
	polite := leased(store.LeaseConfig{Holder: "b", TTL: 1e9})
	if _, err := Execute(w, src(), Options{Store: polite, Downtime: 1}); !errors.Is(err, store.ErrLeaseHeld) {
		t.Fatalf("polite B = %v, want ErrLeaseHeld", err)
	}

	// B's failure detector declares A dead: takeover bumps to epoch 2.
	b := leased(store.LeaseConfig{Holder: "b", TTL: 1e9, Takeover: true})
	resB, err := Execute(w, src(), Options{Store: b, Downtime: 1, CrashAfterSaves: 1})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("B = %v, want ErrCrashed", err)
	}
	if resB.Epoch != 2 {
		t.Fatalf("B epoch = %d, want 2", resB.Epoch)
	}

	// Zombie A re-enters on its ORIGINAL LeaseStore instance: its stale
	// session survives Acquire untouched, and the first guarded write
	// is fenced — fatal, never interleaved.
	if _, err := Execute(w, src(), Options{Store: a, Downtime: 1}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("zombie A = %v, want ErrFenced", err)
	}

	// The survivor (a fresh process, same holder) resumes to completion
	// with a higher epoch and the uncontended journal.
	b2 := leased(store.LeaseConfig{Holder: "b", TTL: 1e9, Takeover: true})
	res, err := Execute(w, src(), Options{Store: b2, Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 3 {
		t.Fatalf("survivor epoch = %d, want 3", res.Epoch)
	}
	if !res.Journal.Equal(ref.Journal) {
		t.Fatalf("survivor journal diverges from uncontended reference:\nref %d events hash %016x\ngot %d events hash %016x",
			len(ref.Journal), ref.Journal.Hash(), len(res.Journal), res.Journal.Hash())
	}
}

// TestExecuteRetriesLeaseAcquisition pins that a transient store error
// during lease acquisition is retried under the run's retry policy. On
// this stack (fault seed 17) the first quorum read of the lease record
// fails on injected read faults at two of three replicas; the retried
// acquisition reads a fresh draw and the run completes with the journal
// of a lease-free run.
func TestExecuteRetriesLeaseAcquisition(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 77, 1) }
	leased := func() store.Store {
		st, err := store.Spec{
			Backends: []store.Store{store.NewMemStore(), store.NewMemStore(), store.NewMemStore()},
			Faults:   &store.FaultPlan{Seed: 17, ReadFail: 0.2},
			Lease:    &store.LeaseConfig{Holder: "a", TTL: 1e9},
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if _, _, err := store.AcquireLease(leased(), "run"); !errors.Is(err, store.ErrInjectedRead) {
		t.Fatalf("bare acquisition = %v, want a failed quorum read on an injected read fault", err)
	}
	if _, err := Execute(w, src(), Options{Store: leased(), Downtime: 1}); !errors.Is(err, store.ErrInjectedRead) {
		t.Fatalf("run without retries = %v, want the acquisition's read fault", err)
	}

	ref, err := Execute(w, src(), Options{Store: store.Checked(store.NewMemStore()), Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(w, src(), Options{Store: leased(), Downtime: 1, SaveRetries: 3})
	if err != nil {
		t.Fatalf("run with retries: %v", err)
	}
	if res.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", res.Epoch)
	}
	if !res.Journal.Equal(ref.Journal) {
		t.Errorf("journal diverges from the lease-free reference: ref hash %016x, got %016x", ref.Journal.Hash(), res.Journal.Hash())
	}
}

// TestExecuteSyncEvery pins executor-driven anti-entropy: a replica
// isolated for the first part of the run converges bit-identically by
// completion without any read traffic, and the pass cadence (absolute
// segment index + one final pass) is what drove it.
func TestExecuteSyncEvery(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 78, 1) }

	build := func(partitionEnd float64) (store.Store, []*store.MemStore) {
		netCfg := netsim.Config{Seed: 9, Latency: 0.02}
		if partitionEnd > 0 {
			netCfg.Partitions = []netsim.Window{{Start: 0, End: partitionEnd, Isolated: []string{"s0"}}}
		}
		mems := []*store.MemStore{store.NewMemStore(), store.NewMemStore(), store.NewMemStore()}
		q, err := store.Spec{
			Backends: []store.Store{mems[0], mems[1], mems[2]}, Net: &netCfg, Timeout: 1.5,
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		return q, mems
	}

	st, mems := build(20)
	res, err := Execute(w, src(), Options{Store: st, Downtime: 1, Adaptive: &AdaptiveOptions{
		Retry:     ExpBackoff{Base: 0.25, Cap: 0.5, MaxAttempts: 4},
		SyncEvery: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	wantPasses := w.Segments()/3 + 1
	if res.Syncs != wantPasses {
		t.Fatalf("Syncs = %d, want %d (every 3rd commit + final)", res.Syncs, wantPasses)
	}
	if res.SyncCopied == 0 {
		t.Fatal("SyncCopied = 0: the isolated replica was never repaired by anti-entropy")
	}
	// All three replicas hold identical raw contents for the run.
	refSeqs, _ := mems[1].List("run")
	for i := range mems {
		seqs, _ := mems[i].List("run")
		if fmt.Sprint(seqs) != fmt.Sprint(refSeqs) {
			t.Fatalf("replica %d seqs %v != %v after final sync", i, seqs, refSeqs)
		}
	}
	for _, sq := range refSeqs {
		want, _ := mems[1].Load("run", sq)
		for i := range mems {
			got, lerr := mems[i].Load("run", sq)
			if lerr != nil || string(got) != string(want) {
				t.Fatalf("replica %d seq %d diverges after final sync (%v)", i, sq, lerr)
			}
		}
	}

	// The sync cadence is invisible to the journal: the same run under
	// the same partition schedule WITHOUT SyncEvery produces the
	// identical journal.
	plain, _ := build(20)
	refRes, err := Execute(w, src(), Options{Store: plain, Downtime: 1, Adaptive: &AdaptiveOptions{
		Retry: ExpBackoff{Base: 0.25, Cap: 0.5, MaxAttempts: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Journal.Equal(refRes.Journal) {
		t.Fatalf("journal with SyncEvery diverges from plain run: %016x vs %016x",
			res.Journal.Hash(), refRes.Journal.Hash())
	}
}
