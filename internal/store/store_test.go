package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/store"
)

// stores returns every implementation under one name each, fresh per
// call, so the contract tests run over all of them.
func stores(t *testing.T) map[string]store.Store {
	t.Helper()
	fs, err := store.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]store.Store{
		"mem":          store.NewMemStore(),
		"file":         fs,
		"checked(mem)": store.Checked(store.NewMemStore()),
	}
}

func TestStoreContract(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Load("run", 1); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Load on empty store: %v, want ErrNotFound", err)
			}
			seqs, err := s.List("run")
			if err != nil || len(seqs) != 0 {
				t.Fatalf("List on empty store: %v, %v", seqs, err)
			}
			for seq, payload := range map[uint64]string{1: "one", 3: "three", 2: "two"} {
				if err := s.Save("run", seq, []byte(payload)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Save("other", 7, []byte("isolated")); err != nil {
				t.Fatal(err)
			}
			seqs, err = s.List("run")
			if err != nil || !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
				t.Fatalf("List = %v, %v; want ascending 1,2,3", seqs, err)
			}
			got, err := s.Load("run", 3)
			if err != nil || string(got) != "three" {
				t.Fatalf("Load(3) = %q, %v", got, err)
			}
			// Overwrite wins.
			if err := s.Save("run", 3, []byte("three'")); err != nil {
				t.Fatal(err)
			}
			got, err = s.Load("run", 3)
			if err != nil || string(got) != "three'" {
				t.Fatalf("Load(3) after overwrite = %q, %v", got, err)
			}
			if seq, ok, err := store.Latest(s, "run"); err != nil || !ok || seq != 3 {
				t.Fatalf("Latest = %d, %v, %v", seq, ok, err)
			}
			if err := s.Delete("run", 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("run", 2); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("double Delete: %v, want ErrNotFound", err)
			}
			seqs, _ = s.List("run")
			if !reflect.DeepEqual(seqs, []uint64{1, 3}) {
				t.Fatalf("List after delete = %v", seqs)
			}
			// Run isolation.
			got, err = s.Load("other", 7)
			if err != nil || string(got) != "isolated" {
				t.Fatalf("other run perturbed: %q, %v", got, err)
			}
			// Run IDs must be path-safe on every implementation.
			for _, bad := range []string{"", "a/b", `a\b`, ".", ".."} {
				if err := s.Save(bad, 1, []byte("x")); err == nil {
					t.Fatalf("Save accepted run ID %q", bad)
				}
			}
		})
	}
}

// TestMemStoreSeqIndex: over random saves (new seqs, overwrites) and
// deletes at the front, middle and back, List returns exactly the
// sorted seqs the run holds, and the caller owns the returned slice.
func TestMemStoreSeqIndex(t *testing.T) {
	m := store.NewMemStore()
	held := map[uint64]bool{}
	r := rng.New(3)
	for op := 0; op < 4000; op++ {
		seq := uint64(r.IntN(300))
		if r.IntN(3) == 0 {
			err := m.Delete("run", seq)
			if held[seq] != (err == nil) {
				t.Fatalf("op %d: Delete(%d) = %v with seq held %v", op, seq, err, held[seq])
			}
			delete(held, seq)
		} else {
			if err := m.Save("run", seq, []byte{byte(seq)}); err != nil {
				t.Fatal(err)
			}
			held[seq] = true
		}
		want := make([]uint64, 0, len(held))
		for q := range held {
			want = append(want, q)
		}
		slices.Sort(want)
		got, err := m.List("run")
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("op %d: List = %v, %v; want %v", op, got, err, want)
		}
		for i := range got {
			got[i] = 1 << 40 // the caller owns the slice
		}
	}
}

// TestLoadReturnsOwnedBuffer pins the buffer-ownership rule of the
// Store contract on every implementation and on composed stacks: Save
// keeps no reference to its payload, and a Load result shares no
// memory with the store or with another Load, so callers may scribble
// on either without changing what the store holds.
func TestLoadReturnsOwnedBuffer(t *testing.T) {
	stacks := stores(t)
	plan := store.FaultPlan{Seed: 3, MeanLatency: 0.1}
	stacks["checked(fault(mem))"] = store.Checked(store.NewFaultStore(store.NewMemStore(), plan))
	netCfg := netsim.Config{Seed: 4, Latency: 0.1}
	stacks["checked(remote(mem))"] = store.Checked(store.NewRemoteStore(store.NewMemStore(), netsim.New(netCfg), netCfg, store.RemoteConfig{}))
	replicas := make([]store.Store, 3)
	for i := range replicas {
		replicas[i] = store.Checked(store.NewFaultStore(store.NewMemStore(), plan))
	}
	q, err := store.NewQuorumStore(replicas, store.QuorumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stacks["quorum(checked(fault(mem)))"] = q
	for name, s := range stacks {
		t.Run(name, func(t *testing.T) {
			payload := []byte("payload")
			if err := s.Save("run", 1, payload); err != nil {
				t.Fatal(err)
			}
			copy(payload, "XXXXXXX")
			first, err := s.Load("run", 1)
			if err != nil || string(first) != "payload" {
				t.Fatalf("Load after the caller reused its Save buffer = %q, %v", first, err)
			}
			copy(first, "YYYYYYY")
			_ = append(first, "ZZZZZZZZ"...) // spare capacity is the caller's too
			second, err := s.Load("run", 1)
			if err != nil || string(second) != "payload" {
				t.Fatalf("Load after the caller wrote into an earlier result = %q, %v", second, err)
			}
		})
	}
}

func TestCheckedDetectsCorruption(t *testing.T) {
	mem := store.NewMemStore()
	s := store.Checked(mem)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	if err := s.Save("r", 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("r", 1)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip = %q, %v", got, err)
	}
	sealed, err := mem.Load("r", 1)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string][]byte{
		"truncated":   sealed[:len(sealed)/2],
		"empty":       {},
		"bad magic":   append([]byte("XXXXXXXX"), sealed[8:]...),
		"flipped bit": flipBit(sealed, len(sealed)/2),
		"flipped crc": flipBit(sealed, len(sealed)-1),
	}
	for name, mut := range mutations {
		if err := mem.Save("r", 2, mut); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("r", 2); !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s frame: Load = %v, want ErrCorrupt", name, err)
		}
	}
	// The intact frame still verifies.
	if _, err := s.Load("r", 1); err != nil {
		t.Fatalf("intact frame failed after corrupt siblings: %v", err)
	}
}

func flipBit(b []byte, i int) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	out[i] ^= 0x40
	return out
}

func TestFileStoreSurvivesDebris(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("r", 5, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Orphaned temp files and foreign names are not checkpoints.
	for _, name := range []string{".tmp-12345", "notes.txt", "ckpt-xyz.bin"} {
		if err := os.WriteFile(filepath.Join(dir, "r", name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := fs.List("r")
	if err != nil || !reflect.DeepEqual(seqs, []uint64{5}) {
		t.Fatalf("List with debris = %v, %v", seqs, err)
	}
	// Reopening the same directory sees the same state.
	fs2, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Load("r", 5)
	if err != nil || string(got) != "good" {
		t.Fatalf("reopen Load = %q, %v", got, err)
	}
}

func TestFaultStoreDeterminism(t *testing.T) {
	plan := store.FaultPlan{Seed: 42, WriteFail: 0.2, TornWrite: 0.2, LoseOld: 0.3, ReadFail: 0.2, MeanLatency: 3}
	script := func() (string, store.FaultStats) {
		fs := store.NewFaultStore(store.NewMemStore(), plan)
		var log strings.Builder
		for seq := uint64(1); seq <= 32; seq++ {
			err := fs.Save("r", seq, []byte(strings.Repeat("x", 64)))
			log.WriteString(errSig(err))
		}
		for seq := uint64(1); seq <= 32; seq++ {
			_, err := fs.Load("r", seq)
			log.WriteString(errSig(err))
		}
		return log.String(), fs.Stats()
	}
	log1, st1 := script()
	log2, st2 := script()
	if log1 != log2 {
		t.Fatalf("fault sequences differ:\n%s\n%s", log1, log2)
	}
	if st1 != st2 {
		t.Fatalf("stats differ: %+v vs %+v", st1, st2)
	}
	if st1.WriteFails == 0 || st1.TornWrites == 0 || st1.ReadFails == 0 || st1.LostOld == 0 {
		t.Fatalf("plan injected nothing in some class: %+v", st1)
	}
	if st1.Latency <= 0 {
		t.Fatalf("no injected latency: %+v", st1)
	}
}

func errSig(err error) string {
	switch {
	case err == nil:
		return "."
	case errors.Is(err, store.ErrInjectedWrite):
		return "W"
	case errors.Is(err, store.ErrInjectedRead):
		return "R"
	case errors.Is(err, store.ErrNotFound):
		return "n"
	default:
		return "?"
	}
}

func TestFaultStoreTornWritesDetectedByChecked(t *testing.T) {
	// All writes tear: every persisted frame must fail codec
	// verification, and none may verify as good data.
	inner := store.NewMemStore()
	s := store.Checked(store.NewFaultStore(inner, store.FaultPlan{Seed: 7, TornWrite: 1}))
	for seq := uint64(1); seq <= 10; seq++ {
		if err := s.Save("r", seq, []byte(strings.Repeat("payload", 10))); !errors.Is(err, store.ErrInjectedWrite) {
			t.Fatalf("torn save reported %v", err)
		}
	}
	seqs, err := inner.List("r")
	if err != nil || len(seqs) == 0 {
		t.Fatalf("torn writes persisted nothing: %v, %v", seqs, err)
	}
	for _, seq := range seqs {
		if _, err := s.Load("r", seq); !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("seq %d: torn frame loaded as %v, want ErrCorrupt", seq, err)
		}
	}
}

func TestFaultStoreLoseOldFallback(t *testing.T) {
	// With LoseOld = 1 every save destroys one older checkpoint, so at
	// most the newest plus... exactly one survivor chain remains; the
	// newest is always intact.
	s := store.NewFaultStore(store.NewMemStore(), store.FaultPlan{Seed: 3, LoseOld: 1})
	for seq := uint64(1); seq <= 8; seq++ {
		if err := s.Save("r", seq, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := s.List("r")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) >= 8 {
		t.Fatalf("LoseOld=1 lost nothing: %v", seqs)
	}
	if seqs[len(seqs)-1] != 8 {
		t.Fatalf("newest checkpoint lost: %v", seqs)
	}
}

// TestFaultStoreLatencyAllOps pins the keyed-stream contract's coverage:
// EVERY operation — Save, Load, List and Delete — pays injected latency,
// the per-run attribution isolates tenants, LastOp exposes each
// operation's exact drawn value, and the whole trace is deterministic
// across injector instances.
func TestFaultStoreLatencyAllOps(t *testing.T) {
	plan := store.FaultPlan{Seed: 21, MeanLatency: 2}
	script := func() ([]float64, float64, store.FaultStats) {
		fs := store.NewFaultStore(store.NewMemStore(), plan)
		var lats []float64
		step := func(op func()) {
			op()
			lats = append(lats, fs.LastOp("a").Latency)
		}
		step(func() { fs.Save("a", 1, []byte("payload")) })
		step(func() { fs.Load("a", 1) })
		step(func() { fs.List("a") })
		step(func() { fs.Delete("a", 1) })
		fs.Save("b", 1, []byte("other tenant"))
		return lats, fs.LastOp("b").Latency, fs.Stats()
	}
	lats1, b1, st1 := script()
	lats2, b2, st2 := script()
	if !reflect.DeepEqual(lats1, lats2) || b1 != b2 || st1 != st2 {
		t.Fatalf("latency trace not deterministic: %v/%v vs %v/%v", lats1, b1, lats2, b2)
	}
	var a1 float64
	for i, l := range lats1 {
		if l <= 0 {
			t.Fatalf("operation %d paid no latency: %v", i, lats1)
		}
		a1 += l
	}
	if b1 <= 0 {
		t.Fatal("run b paid no latency")
	}
	if st1.Latency != a1+b1 {
		t.Fatalf("Stats.Latency %v != per-run totals %v", st1.Latency, a1+b1)
	}
	if op := fsLastOp(t, plan); op.Ops != 0 || op.Latency != 0 {
		t.Fatalf("fresh injector reports prior ops: %+v", op)
	}
}

func fsLastOp(t *testing.T, plan store.FaultPlan) store.RunOp {
	t.Helper()
	fs := store.NewFaultStore(store.NewMemStore(), plan)
	op, ok := store.LastOp(fs, "never-used")
	if !ok {
		t.Fatal("FaultStore does not expose LastOp")
	}
	return op
}

// TestFaultStoreLogicalKeysInvariance pins logical keying: an
// operation's injected outcome is a pure function of (kind, run, seq,
// attempt), so it is invariant under interleaved traffic from other
// runs and resets with a fresh injector instance — the property
// adaptive kill/resume identity and multi-tenant drills rest on.
func TestFaultStoreLogicalKeysInvariance(t *testing.T) {
	plan := store.FaultPlan{Seed: 33, WriteFail: 0.4, ReadFail: 0.4, MeanLatency: 1}
	payload := []byte(strings.Repeat("x", 32))
	// Trace of (err signature, latency) for attempts 1..6 of save r/7.
	trace := func(noise bool) []string {
		fs := store.NewFaultStore(store.NewMemStore(), plan)
		var out []string
		for i := 0; i < 6; i++ {
			if noise {
				// Interleave unrelated traffic: it must not shift r/7's
				// draws.
				fs.Save("other", uint64(i), payload)
				fs.Load("r", 3)
				fs.List("r")
			}
			err := fs.Save("r", 7, payload)
			out = append(out, errSig(err)+fmt.Sprint(fs.LastOp("r").Latency))
		}
		return out
	}
	quiet, noisy := trace(false), trace(true)
	if !reflect.DeepEqual(quiet, noisy) {
		t.Fatalf("logical outcomes perturbed by interleaved traffic:\nquiet %v\nnoisy %v", quiet, noisy)
	}
	// A fresh instance resets attempt counters: its first save of r/7
	// matches attempt 1, not attempt 7.
	fresh := trace(false)
	if fresh[0] != quiet[0] {
		t.Fatalf("fresh injector attempt 1 differs: %v vs %v", fresh[0], quiet[0])
	}
	if got := len(quiet); got != 6 {
		t.Fatalf("trace length %d", got)
	}
}

// TestQuotaStore pins the retained-state quota semantics: replace
// charges the delta, delete refunds, both budget axes reject with
// ErrQuota, accounting is billing-level (inner failures cost nothing),
// tenants group by the mapping, and the ledger survives wrapper
// rebuilds.
func TestQuotaStore(t *testing.T) {
	t.Run("bytes-replace-delete", func(t *testing.T) {
		ledger := store.NewQuotaLedger(store.Quota{MaxBytes: 10}, nil)
		qs := store.NewQuotaStore(ledger, store.NewMemStore())
		if err := qs.Save("r", 1, []byte("123456")); err != nil {
			t.Fatal(err)
		}
		if err := qs.Save("r", 2, []byte("12345")); !errors.Is(err, store.ErrQuota) {
			t.Fatalf("11 bytes admitted against budget 10: %v", err)
		}
		// Replacing seq 1 with a larger payload charges only the delta.
		if err := qs.Save("r", 1, []byte("1234567890")); err != nil {
			t.Fatalf("replace within budget rejected: %v", err)
		}
		if b, n := ledger.Used("r"); b != 10 || n != 1 {
			t.Fatalf("Used = %d bytes, %d checkpoints; want 10, 1", b, n)
		}
		if err := qs.Delete("r", 1); err != nil {
			t.Fatal(err)
		}
		if b, n := ledger.Used("r"); b != 0 || n != 0 {
			t.Fatalf("delete did not refund: %d bytes, %d checkpoints", b, n)
		}
		if err := qs.Save("r", 2, []byte("12345")); err != nil {
			t.Fatalf("post-refund save rejected: %v", err)
		}
	})
	t.Run("checkpoint-count", func(t *testing.T) {
		ledger := store.NewQuotaLedger(store.Quota{MaxCheckpoints: 2}, nil)
		qs := store.NewQuotaStore(ledger, store.NewMemStore())
		for seq := uint64(1); seq <= 2; seq++ {
			if err := qs.Save("r", seq, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := qs.Save("r", 3, []byte("v")); !errors.Is(err, store.ErrQuota) {
			t.Fatalf("third checkpoint admitted against budget 2: %v", err)
		}
		// Overwriting a retained seq is not a new checkpoint.
		if err := qs.Save("r", 2, []byte("v2")); err != nil {
			t.Fatalf("overwrite rejected: %v", err)
		}
	})
	t.Run("billing-level", func(t *testing.T) {
		ledger := store.NewQuotaLedger(store.Quota{MaxBytes: 100}, nil)
		failing := store.NewFaultStore(store.NewMemStore(), store.FaultPlan{Seed: 1, WriteFail: 1})
		qs := store.NewQuotaStore(ledger, failing)
		if err := qs.Save("r", 1, []byte("payload")); !errors.Is(err, store.ErrInjectedWrite) {
			t.Fatalf("err = %v", err)
		}
		if b, n := ledger.Used("r"); b != 0 || n != 0 {
			t.Fatalf("failed save was billed: %d bytes, %d checkpoints", b, n)
		}
	})
	t.Run("tenant-grouping-and-ledger-persistence", func(t *testing.T) {
		tenantOf := func(run string) string { return strings.SplitN(run, "-", 2)[0] }
		ledger := store.NewQuotaLedger(store.Quota{MaxBytes: 8}, tenantOf)
		inner := store.NewMemStore()
		if err := store.NewQuotaStore(ledger, inner).Save("acme-1", 1, []byte("12345")); err != nil {
			t.Fatal(err)
		}
		// A rebuilt wrapper (fresh invocation) over the same ledger still
		// sees acme's usage through a different run of the same tenant.
		qs2 := store.NewQuotaStore(ledger, inner)
		if err := qs2.Save("acme-2", 1, []byte("12345")); !errors.Is(err, store.ErrQuota) {
			t.Fatalf("tenant budget not shared across runs/wrappers: %v", err)
		}
		if err := qs2.Save("zen-1", 1, []byte("12345")); err != nil {
			t.Fatalf("other tenant rejected: %v", err)
		}
		if b, _ := ledger.Used("acme"); b != 5 {
			t.Fatalf("Used(acme) = %d, want 5", b)
		}
	})
}

// TestMeasure pins the measurement helper every latency consumer uses:
// an untracked stack reports tracked=false, an operation a quota layer
// rejects above the fault injector charges 0 even though the injector's
// ledger still holds the previous operation's latency, and a composed
// Remote(Fault(Mem)) stack charges network plus inner latency — exactly
// the remote layer's LastOp.
func TestMeasure(t *testing.T) {
	t.Run("untracked", func(t *testing.T) {
		st := store.Checked(store.NewMemStore())
		lat, tracked, err := store.Measure(st, "r", func() error { return st.Save("r", 1, []byte("x")) })
		if err != nil || tracked || lat != 0 {
			t.Fatalf("Measure = %v, %v, %v; want 0, false, nil", lat, tracked, err)
		}
	})
	t.Run("quota rejects above fault", func(t *testing.T) {
		fs := store.NewFaultStore(store.NewMemStore(), store.FaultPlan{Seed: 3, MeanLatency: 2})
		st := store.NewQuotaStore(store.NewQuotaLedger(store.Quota{MaxBytes: 64}, nil), store.Checked(fs))
		lat, tracked, err := store.Measure(st, "r", func() error { return st.Save("r", 1, []byte("small")) })
		if err != nil || !tracked || lat <= 0 || lat != fs.LastOp("r").Latency {
			t.Fatalf("admitted save: Measure = %v, %v, %v; injector LastOp %+v", lat, tracked, err, fs.LastOp("r"))
		}
		lat, tracked, err = store.Measure(st, "r", func() error { return st.Save("r", 2, make([]byte, 128)) })
		if !errors.Is(err, store.ErrQuota) || !tracked || lat != 0 {
			t.Fatalf("rejected save: Measure = %v, %v, %v; want 0, true, ErrQuota", lat, tracked, err)
		}
		if prev := fs.LastOp("r"); prev.Ops != 1 || prev.Latency <= 0 {
			t.Fatalf("injector ledger = %+v, want the admitted save's op still on record", prev)
		}
	})
	t.Run("remote over fault", func(t *testing.T) {
		netCfg := netsim.Config{Seed: 5, Latency: 0.1, Jitter: 0.05}
		fs := store.NewFaultStore(store.NewMemStore(), store.FaultPlan{Seed: 6, MeanLatency: 2})
		rs := store.NewRemoteStore(fs, netsim.New(netCfg), netCfg, store.RemoteConfig{Timeout: 100})
		st := store.Checked(rs)
		lat, tracked, err := store.Measure(st, "r", func() error { return st.Save("r", 1, []byte("x")) })
		if err != nil || !tracked {
			t.Fatalf("Measure = %v, %v, %v", lat, tracked, err)
		}
		if inner := fs.LastOp("r").Latency; inner <= 0 || lat <= inner {
			t.Fatalf("charged %v, want network latency on top of the injector's %v", lat, inner)
		}
		if op := rs.LastOp("r"); lat != op.Latency {
			t.Fatalf("charged %v, remote LastOp %+v", lat, op)
		}
	})
}
