package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
)

// The latency drill runs on the stack a RunSpec builds for a replicated,
// fenced, metered run: Quota(Lease(Quorum(W=2,R=2; 3×Checked(Remote(
// Fault(Mem)))))) on one network with jitter, loss and one partition
// window that cuts s0 off, every replica tearing, failing and delaying
// writes and failing reads.
var (
	drillFaults = FaultPlan{Seed: 71, WriteFail: 0.08, TornWrite: 0.1, ReadFail: 0.08, MeanLatency: 0.05}
	drillNet    = netsim.Config{Seed: 72, Latency: 0.1, Jitter: 0.05, Loss: 0.04, Partitions: []netsim.Window{
		{Start: 8, End: 14, Isolated: []string{"s0"}},
	}}
	drillLease = LeaseConfig{Holder: "drill", TTL: 4}
)

const (
	drillTimeout = 0.6
	drillSaves   = 24
)

// drillSpec declares the drill's stack over fresh memory backends.
func drillSpec() Spec {
	return Spec{
		Backends: []Store{NewMemStore(), NewMemStore(), NewMemStore()},
		Faults:   &drillFaults,
		Net:      &drillNet,
		Timeout:  drillTimeout,
		W:        2,
		Lease:    &drillLease,
		Quota:    NewQuotaLedger(Quota{MaxBytes: 1 << 40, MaxCheckpoints: 1 << 20}, nil),
	}
}

// passStore is a pass-through decorator that is transparent through
// Unwrap, the shape of a tracing probe: it must leave every capability
// walk and every charged latency exactly as the bare stack has them.
type passStore struct{ inner Store }

func (p passStore) Unwrap() Store                               { return p.inner }
func (p passStore) Save(run string, seq uint64, b []byte) error { return p.inner.Save(run, seq, b) }
func (p passStore) Load(run string, seq uint64) ([]byte, error) { return p.inner.Load(run, seq) }
func (p passStore) List(run string) ([]uint64, error)           { return p.inner.List(run) }
func (p passStore) Delete(run string, seq uint64) error         { return p.inner.Delete(run, seq) }

// buildPassStack composes spec's stack by hand in Build's order with a
// pass-through decorator between every pair of layers and on top.
func buildPassStack(spec Spec) Store {
	net := netsim.New(*spec.Net)
	reps := make([]Store, len(spec.Backends))
	for i, b := range spec.Backends {
		plan := *spec.Faults
		plan.Seed += uint64(i)
		f := NewFaultStore(passStore{b}, plan)
		r := NewRemoteStore(passStore{f}, net, *spec.Net, RemoteConfig{Remote: fmt.Sprintf("s%d", i), Timeout: spec.Timeout})
		reps[i] = passStore{Checked(passStore{r})}
	}
	q, err := NewQuorumStore(reps, QuorumConfig{W: spec.W})
	if err != nil {
		panic(err)
	}
	l := NewLeaseStore(passStore{q}, *spec.Lease)
	return passStore{NewQuotaStore(spec.Quota, passStore{l})}
}

// drillPayload is seq's deterministic payload.
func drillPayload(run string, seq uint64) []byte {
	b := make([]byte, 40+seq)
	for i := range b {
		b[i] = byte(uint64(i)*31 + seq*7 + uint64(len(run)))
	}
	return b
}

// runDrill drives one run through top and writes one line per
// operation: the latency Measure charged, the run's LastOp after it,
// and the error. clock is the run's virtual time, advanced past every
// operation's charged latency; it is bound before the lease is taken.
func runDrill(top Store, run string, clock *float64, out *strings.Builder) error {
	BindClock(top, run, func() float64 { return *clock })
	for attempt := 1; ; attempt++ {
		st, _, err := AcquireLease(top, run)
		fmt.Fprintf(out, "acquire epoch=%d expiry=%x err=%v\n", st.Epoch, st.Expiry, err)
		if err == nil {
			break
		}
		if attempt == 4 {
			return fmt.Errorf("%s: acquire: %w", run, err)
		}
	}
	step := func(name string, seq uint64, op func() error) {
		lat, tracked, err := Measure(top, run, op)
		last, _ := LastOp(top, run)
		fmt.Fprintf(out, "%s %d t=%x lat=%x tracked=%v ops=%d last=%x err=%v\n", name, seq, *clock, lat, tracked, last.Ops, last.Latency, err)
		*clock += 0.5 + lat
	}
	load := func(seq uint64) {
		step("load", seq, func() error {
			b, err := top.Load(run, seq)
			if err == nil && string(b) != string(drillPayload(run, seq)) {
				return fmt.Errorf("load %d: wrong payload", seq)
			}
			return err
		})
	}
	for seq := uint64(1); seq <= drillSaves; seq++ {
		step("save", seq, func() error { return top.Save(run, seq, drillPayload(run, seq)) })
		if seq%3 == 0 {
			load(seq - 1)
		}
		if seq%5 == 0 {
			step("list", 0, func() error {
				seqs, err := top.List(run)
				fmt.Fprintf(out, "  listed %v\n", seqs)
				return err
			})
		}
		if seq == 10 {
			step("delete", 2, func() error { return top.Delete(run, 2) })
		}
	}
	sy, _ := FindSyncer(top)
	srep, err := sy.SyncRun(run)
	fmt.Fprintf(out, "sync %+v err=%v\n", srep, err)
	sc, _ := FindScrubber(top)
	crep, err := sc.ScrubRun(run)
	fmt.Fprintf(out, "scrub %+v err=%v\n", crep, err)
	for seq := uint64(1); seq <= drillSaves; seq++ {
		load(seq)
	}
	return nil
}

// drillCounters writes every layer's counters below top.
func drillCounters(top Store, out *strings.Builder) {
	q, _ := find[*QuorumStore](top)
	fmt.Fprintf(out, "quorum %+v\n", q.Stats())
	var net *netsim.Network
	for i, rep := range q.replicas {
		r, _ := find[*RemoteStore](rep)
		f, _ := find[*FaultStore](rep)
		net = r.net
		fmt.Fprintf(out, "replica %d timeouts=%d faults=%+v\n", i, r.Timeouts(), f.Stats())
	}
	fmt.Fprintf(out, "net %+v\n", net.Stats())
	l, _ := find[*LeaseStore](top)
	fmt.Fprintf(out, "lease %+v\n", l.Stats())
}

// latencyDrill runs the drill for the given runs in order on top and
// returns the trace with the layer counters appended.
func latencyDrill(t *testing.T, top Store, runs ...string) string {
	var out strings.Builder
	for _, run := range runs {
		clock := 0.0
		fmt.Fprintf(&out, "run %s\n", run)
		if err := runDrill(top, run, &clock, &out); err != nil {
			t.Fatal(err)
		}
	}
	drillCounters(top, &out)
	return out.String()
}

// latencyGolden is the sha256 of the drill's trace over runs "a" and
// "b" on a Spec-built stack.
const latencyGolden = "04c0872e56e776b0d046c027204941f3c21296e9e6abed320c3080990cda6dd5"

// TestLatencyGolden pins, op by op, the latency every layer charges on
// the drill, each LastOp, and the fault, quorum, network, timeout and
// lease counters; a stack with a pass-through decorator between every
// pair of layers must give the same trace. A mismatch prints the trace.
func TestLatencyGolden(t *testing.T) {
	built, err := drillSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	got := latencyDrill(t, built, "a", "b")
	sum := sha256.Sum256([]byte(got))
	if h := hex.EncodeToString(sum[:]); h != latencyGolden {
		t.Errorf("drill trace sha256 %s, pinned %s; trace:\n%s", h, latencyGolden, got)
	}
	q, _ := find[*QuorumStore](built)
	r0, _ := find[*RemoteStore](q.replicas[0])
	f0, _ := find[*FaultStore](q.replicas[0])
	l, _ := find[*LeaseStore](built)
	qs, ns, fs := q.Stats(), r0.net.Stats(), f0.Stats()
	for _, c := range []struct {
		what string
		n    uint64
	}{
		{"partitioned messages", ns.Partitioned}, {"lost messages", ns.Lost},
		{"torn writes", fs.TornWrites}, {"failed writes", fs.WriteFails}, {"failed reads", fs.ReadFails},
		{"repairs", qs.Repairs}, {"hedged reads", qs.Hedged}, {"quorum failures", qs.QuorumFailures},
		{"lease renewals", l.Stats().Renewals},
	} {
		if c.n == 0 {
			t.Errorf("the drill makes no %s: it no longer exercises them", c.what)
		}
	}
	if wrapped := latencyDrill(t, buildPassStack(drillSpec()), "a", "b"); wrapped != got {
		t.Errorf("pass-through decorators changed the trace:\n%s", firstDiff(got, wrapped))
	}
}

// firstDiff reports the first line at which two traces differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestLatencyDrillConcurrentRuns drives distinct runs through one shared
// stack from several goroutines at once: each run's trace must equal its
// solo trace on a private stack, since every outcome is keyed by the
// run's own operations and clock.
func TestLatencyDrillConcurrentRuns(t *testing.T) {
	runs := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	solo := make(map[string]string)
	for _, run := range runs {
		top, err := drillSpec().Build()
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		clock := 0.0
		if err := runDrill(top, run, &clock, &out); err != nil {
			t.Fatal(err)
		}
		solo[run] = out.String()
	}
	shared, err := drillSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]strings.Builder, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock := 0.0
			if err := runDrill(shared, run, &clock, &got[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, run := range runs {
		if got[i].String() != solo[run] {
			t.Errorf("run %s on the shared stack diverged from its solo trace:\n%s", run, firstDiff(solo[run], got[i].String()))
		}
	}
}

// TestBindClockRebindsResolvedRun: once a run's operations have gone
// through the stack, binding a new clock for it (an executor invocation
// reusing the stack) must reach every layer that evaluates time. The
// run first saves outside the partition window, then is rebound to a
// clock inside it: s0's remote hop must time out as partitioned.
func TestBindClockRebindsResolvedRun(t *testing.T) {
	spec := drillSpec()
	spec.Faults = &FaultPlan{Seed: 5}
	spec.Net = &netsim.Config{Seed: 6, Latency: 0.1, Partitions: drillNet.Partitions}
	top, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	early, late := func() float64 { return 1 }, func() float64 { return 10 }
	BindClock(top, "run", early)
	if _, _, err := AcquireLease(top, "run"); err != nil {
		t.Fatal(err)
	}
	if err := top.Save("run", 1, []byte("early")); err != nil {
		t.Fatal(err)
	}
	q, _ := find[*QuorumStore](top)
	s0, _ := find[*RemoteStore](q.replicas[0])
	if n := s0.Timeouts(); n != 0 {
		t.Fatalf("s0 timed out %d times outside the window", n)
	}
	BindClock(top, "run", late)
	if err := top.Save("run", 2, []byte("late")); err != nil {
		t.Fatalf("majority save inside the window: %v", err)
	}
	if n := s0.Timeouts(); n == 0 {
		t.Fatal("rebound clock did not reach s0's remote hop: no partitioned timeout inside the window")
	}
	if lat, _, err := Measure(top, "run", func() error { return top.Save("run", 3, []byte("late")) }); err != nil || lat <= 0 {
		t.Fatalf("measured save inside the window: lat %v, err %v", lat, err)
	}
}
