package store

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/netsim"
)

// quorumStack builds a quorum store whose replicas are each
// Checked(Remote(Fault(mem))) behind ONE shared network; replica i is
// endpoint "s<i>". Returns the quorum store and the replica mem stores
// for white-box inspection.
func quorumStack(netCfg netsim.Config, qcfg QuorumConfig, n int, faults FaultPlan) (*QuorumStore, []*MemStore) {
	net := netsim.New(netCfg)
	replicas := make([]Store, n)
	mems := make([]*MemStore, n)
	for i := 0; i < n; i++ {
		mems[i] = NewMemStore()
		var inner Store = mems[i]
		if faults != (FaultPlan{}) {
			fp := faults
			fp.Seed = faults.Seed + uint64(i)
			inner = NewFaultStore(inner, fp)
		}
		rs := NewRemoteStore(inner, net, netCfg, RemoteConfig{Remote: fmt.Sprintf("s%d", i), Timeout: 2})
		replicas[i] = Checked(rs)
	}
	q, err := NewQuorumStore(replicas, qcfg)
	if err != nil {
		panic(err)
	}
	return q, mems
}

// TestKthSmallest pins the quorum-assembly selection directly: exact
// ranks at both ends, duplicate values occupying adjacent ranks, and
// no mutation of the input.
func TestKthSmallest(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		k    int
		want float64
	}{
		{[]float64{5}, 1, 5},
		{[]float64{3, 1, 2}, 1, 1},
		{[]float64{3, 1, 2}, 2, 2},
		{[]float64{3, 1, 2}, 3, 3},
		{[]float64{2, 2, 2}, 1, 2},
		{[]float64{2, 2, 2}, 3, 2},
		{[]float64{4, 1, 4, 1}, 2, 1}, // ties: duplicate ranks adjacent
		{[]float64{4, 1, 4, 1}, 3, 4},
		{[]float64{0.3, 0.1, 0.2, 0.1, 0.3}, 4, 0.3},
	} {
		if got := kthSmallest(tc.xs, tc.k); got != tc.want {
			t.Errorf("kthSmallest(%v, %d) = %g, want %g", tc.xs, tc.k, got, tc.want)
		}
	}
	xs := []float64{9, 7, 8}
	_ = kthSmallest(xs, 2)
	if !reflect.DeepEqual(xs, []float64{9, 7, 8}) {
		t.Fatalf("kthSmallest mutated its input: %v", xs)
	}
	// Every rank of random quorum-sized inputs with ties matches the
	// sorted order.
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+r.IntN(9))
		for i := range xs {
			xs[i] = float64(r.IntN(5)) / 4
		}
		sorted := slices.Sorted(slices.Values(xs))
		for k := 1; k <= len(xs); k++ {
			if got, want := kthSmallest(xs, k), sorted[k-1]; got != want {
				t.Fatalf("kthSmallest(%v, %d) = %g, sorted rank gives %g", xs, k, got, want)
			}
		}
	}
}

// TestQuorumReadRepairConvergence is the property test behind the
// read-repair claim: after a quorum Load over deterministically
// diverged replicas — any mix of missing copies, torn frames, and
// divergent-but-valid payloads — every CONTACTED replica holds the
// chosen payload bit-for-bit. With R=N that is all N replicas.
func TestQuorumReadRepairConvergence(t *testing.T) {
	// Each scenario describes replica i's state before the Load:
	// "ok" (canonical), "missing", "torn", "divergent" (valid frame,
	// different bytes).
	scenarios := [][]string{
		{"ok", "missing", "torn"},
		{"ok", "torn", "torn"},
		{"missing", "ok", "divergent"},
		{"divergent", "ok", "missing"},
		{"ok", "divergent", "divergent"},
		{"torn", "missing", "ok"},
	}
	for si, sc := range scenarios {
		t.Run(fmt.Sprintf("scenario_%d", si), func(t *testing.T) {
			q, mems := quorumStack(netsim.Config{Seed: uint64(40 + si), Latency: 0.05}, QuorumConfig{W: 3, R: 3}, 3, FaultPlan{})
			if err := q.Save("r", 1, []byte("canonical")); err != nil {
				t.Fatalf("Save: %v", err)
			}
			for i, state := range sc {
				switch state {
				case "missing":
					if err := mems[i].Delete("r", 1); err != nil {
						t.Fatalf("replica %d delete: %v", i, err)
					}
				case "torn":
					raw, _ := mems[i].Load("r", 1)
					if err := mems[i].Save("r", 1, raw[:len(raw)-3]); err != nil {
						t.Fatalf("replica %d tear: %v", i, err)
					}
				case "divergent":
					if err := Checked(mems[i]).Save("r", 1, []byte("from another era")); err != nil {
						t.Fatalf("replica %d divergent plant: %v", i, err)
					}
				}
			}
			payload, err := q.Load("r", 1)
			if err != nil {
				t.Fatalf("Load over diverged replicas: %v", err)
			}
			ref, err := mems[0].Load("r", 1)
			if err != nil {
				t.Fatalf("replica 0 raw load: %v", err)
			}
			for i := 1; i < 3; i++ {
				got, err := mems[i].Load("r", 1)
				if err != nil {
					t.Fatalf("replica %d raw load after repair: %v", i, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("replica %d raw frame diverges from replica 0 after read repair", i)
				}
			}
			for i := 0; i < 3; i++ {
				got, err := q.replicas[i].Load("r", 1)
				if err != nil || string(got) != string(payload) {
					t.Fatalf("replica %d decoded = %q, %v; want the chosen payload %q", i, got, err, payload)
				}
			}
		})
	}
}

func TestQuorumRoundTrip(t *testing.T) {
	q, mems := quorumStack(netsim.Config{Seed: 1, Latency: 0.1, Jitter: 0.1}, QuorumConfig{}, 3, FaultPlan{})
	payload := []byte("state")
	if err := q.Save("r", 1, payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for i, m := range mems {
		if seqs, _ := m.List("r"); len(seqs) != 1 {
			t.Fatalf("replica %d holds %v, want one checkpoint", i, seqs)
		}
	}
	got, err := q.Load("r", 1)
	if err != nil || string(got) != "state" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	seqs, err := q.List("r")
	if err != nil || len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("List = %v, %v", seqs, err)
	}
	if err := q.Delete("r", 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := q.Delete("r", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete = %v, want ErrNotFound", err)
	}
	if _, err := q.Load("r", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after delete = %v, want ErrNotFound", err)
	}
	if op := q.LastOp("r"); op.Ops != 6 {
		t.Fatalf("quorum ops = %d, want 6 (one per call)", op.Ops)
	}
}

// TestQuorumRidesPartition pins the headline property: with one of
// three replicas isolated, W=2 writes and R=2 reads keep succeeding,
// while a single remote store behind the same window only times out.
func TestQuorumRidesPartition(t *testing.T) {
	netCfg := netsim.Config{
		Seed:       2,
		Latency:    0.1,
		Partitions: []netsim.Window{{Start: 0, End: 100, Isolated: []string{"s0"}}},
	}
	q, mems := quorumStack(netCfg, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	now := 50.0
	q.BindClock("r", func() float64 { return now })

	if err := q.Save("r", 1, []byte("during")); err != nil {
		t.Fatalf("quorum Save during partition: %v", err)
	}
	if seqs, _ := mems[0].List("r"); len(seqs) != 0 {
		t.Fatalf("isolated replica received the write: %v", seqs)
	}
	got, err := q.Load("r", 1)
	if err != nil || string(got) != "during" {
		t.Fatalf("quorum Load during partition = %q, %v", got, err)
	}

	single, _ := remoteOverMem(netsim.Config{
		Seed:       2,
		Latency:    0.1,
		Partitions: []netsim.Window{{Start: 0, End: 100, Isolated: []string{"store"}}},
	}, RemoteConfig{Timeout: 2})
	BindClock(single, "r", func() float64 { return 50 })
	if err := single.Save("r", 1, []byte("during")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("single store during partition: %v, want ErrTimeout", err)
	}
}

// TestQuorumReadRepair checks that a replica that missed the write (or
// holds a torn frame) is healed by the read path, off the critical
// path.
func TestQuorumReadRepair(t *testing.T) {
	netCfg := netsim.Config{Seed: 3, Latency: 0.05}
	q, mems := quorumStack(netCfg, QuorumConfig{W: 2, R: 3}, 3, FaultPlan{})
	if err := q.Save("r", 1, []byte("good")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Replica 1 silently loses the checkpoint; a torn frame stands in
	// on replica 2.
	if err := mems[1].Delete("r", 1); err != nil {
		t.Fatalf("Delete on replica 1: %v", err)
	}
	raw, _ := mems[2].Load("r", 1)
	if err := mems[2].Save("r", 1, raw[:len(raw)-3]); err != nil {
		t.Fatalf("tearing replica 2: %v", err)
	}

	got, err := q.Load("r", 1)
	if err != nil || string(got) != "good" {
		t.Fatalf("Load with stale replicas = %q, %v", got, err)
	}
	if st := q.Stats(); st.Repairs != 2 {
		t.Fatalf("Repairs = %d, want 2", st.Repairs)
	}
	// Both replicas healed: direct loads through their checked layers
	// now succeed.
	for _, i := range []int{1, 2} {
		if _, err := q.replicas[i].Load("r", 1); err != nil {
			t.Fatalf("replica %d still stale after repair: %v", i, err)
		}
	}
}

// TestQuorumNotReached pins the failure shape when no quorum is
// possible: ErrQuorum wrapping a transient (timeout) cause, so the
// executor retries rather than aborts.
func TestQuorumNotReached(t *testing.T) {
	netCfg := netsim.Config{
		Seed:       4,
		Partitions: []netsim.Window{{Start: 0, End: 100, Isolated: []string{"s0", "s1", "s2"}}},
	}
	q, _ := quorumStack(netCfg, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	err := q.Save("r", 1, []byte("x"))
	if !errors.Is(err, ErrQuorum) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("Save with all replicas cut = %v, want ErrQuorum wrapping ErrTimeout", err)
	}
	if _, err := q.Load("r", 1); !errors.Is(err, ErrQuorum) {
		t.Fatalf("Load with all replicas cut = %v, want ErrQuorum", err)
	}
	if st := q.Stats(); st.QuorumFailures != 2 {
		t.Fatalf("QuorumFailures = %d, want 2", st.QuorumFailures)
	}
}

// runScript drives one run through a quorum store with a fixed op
// script and returns every observable: per-op success, per-op quorum
// latency, and the loaded payloads.
func runScript(q *QuorumStore, run string) (oks []bool, lats []float64, loads []string) {
	for seq := uint64(1); seq <= 10; seq++ {
		payload := []byte(fmt.Sprintf("%s/%d payload with some length to tear", run, seq))
		err := q.Save(run, seq, payload)
		op := q.LastOp(run)
		oks = append(oks, err == nil)
		lats = append(lats, op.Latency)
		if seq%3 == 0 {
			got, lerr := q.Load(run, seq)
			op = q.LastOp(run)
			oks = append(oks, lerr == nil)
			lats = append(lats, op.Latency)
			if lerr == nil {
				loads = append(loads, string(got))
			}
		}
	}
	seqs, err := q.List(run)
	oks = append(oks, err == nil)
	loads = append(loads, fmt.Sprintf("list=%v", seqs))
	return
}

// TestQuorumDeterministicRepair is the property test behind the PR's
// determinism claim: for any replica count and any worker count, the
// merge/repair behaviour of a shared quorum store is a pure function
// of each run's logical operations. Every run's observations on a
// shared, concurrently hammered stack must equal the same run's
// observations on a private stack, and the aggregate repair counters
// must equal the sum of the solo runs'.
func TestQuorumDeterministicRepair(t *testing.T) {
	faults := FaultPlan{Seed: 90, TornWrite: 0.25, LoseOld: 0.1, MeanLatency: 0.2}
	netCfg := netsim.Config{Seed: 91, Latency: 0.05, Jitter: 0.3, Loss: 0.1}
	runs := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

	for _, tc := range []struct{ n, w, r, workers int }{
		{2, 2, 1, 2},
		{3, 2, 2, 3},
		{3, 3, 1, 6},
		{5, 3, 3, 4},
		{5, 4, 2, 6},
	} {
		t.Run(fmt.Sprintf("n=%d_w=%d_r=%d_workers=%d", tc.n, tc.w, tc.r, tc.workers), func(t *testing.T) {
			type obs struct {
				oks   []bool
				lats  []float64
				loads []string
			}
			// Solo reference: a private stack per run.
			want := make(map[string]obs)
			var wantRepairs uint64
			for _, run := range runs {
				q, _ := quorumStack(netCfg, QuorumConfig{W: tc.w, R: tc.r}, tc.n, faults)
				oks, lats, loads := runScript(q, run)
				want[run] = obs{oks, lats, loads}
				wantRepairs += q.Stats().Repairs
			}

			// Shared stack, runs distributed over workers.
			shared, _ := quorumStack(netCfg, QuorumConfig{W: tc.w, R: tc.r}, tc.n, faults)
			got := make(map[string]obs)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(runs); i += tc.workers {
						run := runs[i]
						oks, lats, loads := runScript(shared, run)
						mu.Lock()
						got[run] = obs{oks, lats, loads}
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()

			for _, run := range runs {
				if !reflect.DeepEqual(want[run], got[run]) {
					t.Fatalf("run %s diverged between solo and shared stacks:\nsolo   %+v\nshared %+v", run, want[run], got[run])
				}
			}
			if gotRepairs := shared.Stats().Repairs; gotRepairs != wantRepairs {
				t.Fatalf("shared Repairs = %d, want sum of solo runs %d", gotRepairs, wantRepairs)
			}
		})
	}
}
