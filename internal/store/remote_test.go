package store

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// remoteOverMem builds Checked(Remote(mem)) over a fresh network and
// returns both the composed store and the remote layer.
func remoteOverMem(netCfg netsim.Config, cfg RemoteConfig) (Store, *RemoteStore) {
	net := netsim.New(netCfg)
	rs := NewRemoteStore(NewMemStore(), net, netCfg, cfg)
	return Checked(rs), rs
}

func TestRemoteStoreRoundTrip(t *testing.T) {
	st, rs := remoteOverMem(netsim.Config{Seed: 1, Latency: 0.1, Jitter: 0.2}, RemoteConfig{})
	payload := []byte("checkpoint state")
	if err := st.Save("r", 3, payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := st.Load("r", 3)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("Load = %q, want %q", got, payload)
	}
	seqs, err := st.List("r")
	if err != nil || len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("List = %v, %v", seqs, err)
	}
	if err := st.Delete("r", 3); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	op := rs.LastOp("r")
	if op.Ops != 4 {
		t.Fatalf("Ops = %d, want 4", op.Ops)
	}
	if op.Latency < 0.1 {
		t.Fatalf("last op latency %v below base latency", op.Latency)
	}
	if got, ok := LastOp(st, "r"); !ok || got != op {
		t.Fatalf("LastOp through the codec = %+v, %v; want %+v", got, ok, op)
	}
}

func TestRemoteStoreTimeoutDuringPartition(t *testing.T) {
	netCfg := netsim.Config{
		Seed:       2,
		Latency:    0.1,
		Partitions: []netsim.Window{{Start: 10, End: 20, Isolated: []string{"store"}}},
	}
	st, rs := remoteOverMem(netCfg, RemoteConfig{Timeout: 2})
	now := 0.0
	BindClock(st, "r", func() float64 { return now })

	if err := st.Save("r", 1, []byte("before")); err != nil {
		t.Fatalf("Save before window: %v", err)
	}

	now = 15 // inside the window
	err := st.Save("r", 2, []byte("during"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Save during window: err = %v, want ErrTimeout", err)
	}
	if op := rs.LastOp("r"); op.Latency != 2 {
		t.Fatalf("timed-out op charged %v, want the 2.0 timeout", op.Latency)
	}
	// The message never reached the inner store.
	if _, err := st.Load("r", 2); !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load during window: %v", err)
	}

	now = 25 // window healed
	if err := st.Save("r", 2, []byte("after")); err != nil {
		t.Fatalf("Save after window: %v", err)
	}
	if _, err := st.Load("r", 2); err != nil {
		t.Fatalf("Load after window: %v", err)
	}
	if rs.Timeouts() == 0 {
		t.Fatal("Timeouts counter never advanced")
	}
}

func TestRemoteStoreLoss(t *testing.T) {
	st, _ := remoteOverMem(netsim.Config{Seed: 3, Loss: 1}, RemoteConfig{Timeout: 1})
	if err := st.Save("r", 1, []byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Save with full loss: %v, want ErrTimeout", err)
	}
}

// TestRemoteStoreReplayDeterministic pins that a rebuilt stack (fresh
// network instance, same seed) re-observes identical per-op latencies
// and outcomes — the kill/resume contract.
func TestRemoteStoreReplayDeterministic(t *testing.T) {
	netCfg := netsim.Config{Seed: 4, Latency: 0.05, Jitter: 0.4, Loss: 0.2}
	run := func() ([]float64, []bool) {
		st, rs := remoteOverMem(netCfg, RemoteConfig{Timeout: 1.5})
		var lats []float64
		var oks []bool
		for seq := uint64(1); seq <= 20; seq++ {
			err := st.Save("r", seq, []byte(fmt.Sprintf("payload-%d", seq)))
			op := rs.LastOp("r")
			lats = append(lats, op.Latency)
			oks = append(oks, err == nil)
		}
		return lats, oks
	}
	l1, o1 := run()
	l2, o2 := run()
	for i := range l1 {
		if l1[i] != l2[i] || o1[i] != o2[i] {
			t.Fatalf("op %d: (%v, %v) vs (%v, %v)", i, l1[i], o1[i], l2[i], o2[i])
		}
	}
}

// TestRemoteStoreFoldsInnerLatency checks that a fault layer below the
// network contributes its virtual latency to the remote op's cost.
func TestRemoteStoreFoldsInnerLatency(t *testing.T) {
	netCfg := netsim.Config{Seed: 5, Latency: 0.1}
	net := netsim.New(netCfg)
	fault := NewFaultStore(NewMemStore(), FaultPlan{Seed: 6, MeanLatency: 2})
	rs := NewRemoteStore(fault, net, netCfg, RemoteConfig{Timeout: 100})
	st := Checked(rs)
	if err := st.Save("r", 1, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	inner := fault.LastOp("r")
	outer := rs.LastOp("r")
	if want := 0.1 + inner.Latency; outer.Latency != want {
		t.Fatalf("outer latency %v, want net 0.1 + inner %v = %v", outer.Latency, inner.Latency, want)
	}
}

func TestRemoteConfigDefaultTimeout(t *testing.T) {
	netCfg := netsim.Config{Latency: 0.5, Jitter: 0.25}
	_, rs := remoteOverMem(netCfg, RemoteConfig{})
	if got := rs.Timeout(); got != 6 {
		t.Fatalf("default timeout %v, want 8*(0.5+0.25)=6", got)
	}
	_, rs = remoteOverMem(netsim.Config{}, RemoteConfig{})
	if got := rs.Timeout(); got != 1 {
		t.Fatalf("default timeout floor %v, want 1", got)
	}
}
