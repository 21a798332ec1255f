package store

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// allocPlan draws latency for every operation but injects no fault, so
// each op walks the keyed-draw path and no error path.
var allocPlan = FaultPlan{Seed: 5, MeanLatency: 0.01}

// pinAllocs fails when op's average heap allocation count differs from
// want. The counts are budgets: a rise is a regression, and a drop
// should re-pin the lower figure.
func pinAllocs(t *testing.T, name string, want float64, op func() error) {
	t.Helper()
	var err error
	got := testing.AllocsPerRun(100, func() { err = op() })
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got != want {
		t.Errorf("%s: %v allocs/op, budget %v", name, got, want)
	}
}

// TestFaultStoreAllocs: one keyed stream per operation, plus the mem
// store's copy of the payload.
func TestFaultStoreAllocs(t *testing.T) {
	f := NewFaultStore(NewMemStore(), allocPlan)
	payload := make([]byte, 256)
	if err := f.Save("r", 1, payload); err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "FaultStore.Save", 2, func() error { return f.Save("r", 1, payload) })
	pinAllocs(t, "FaultStore.Load", 2, func() error { _, err := f.Load("r", 1); return err })
}

// TestQuorumStoreAllocs: a W=R=2 quorum over three Checked(Fault(Mem))
// replicas costs only what its replicas allocate. A Save is a sealed
// frame, a keyed stream and a mem copy on each of three replicas; a
// Load is a keyed stream and a mem copy on each of the two replicas
// the read quorum contacts. The fan-out itself allocates nothing.
func TestQuorumStoreAllocs(t *testing.T) {
	replicas := make([]Store, 3)
	for i := range replicas {
		plan := allocPlan
		plan.Seed += uint64(i)
		replicas[i] = Checked(NewFaultStore(NewMemStore(), plan))
	}
	q, err := NewQuorumStore(replicas, QuorumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	if err := q.Save("r", 1, payload); err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "QuorumStore.Save", 9, func() error { return q.Save("r", 1, payload) })
	pinAllocs(t, "QuorumStore.Load", 4, func() error { _, err := q.Load("r", 1); return err })
}

// TestSpecBuildAllocs: Build allocates its layers and nothing else —
// validation and the optional-layer branches are free. A replica is a
// fault injector (struct, attempt map), a remote hop (struct, clock
// map) and the codec; the stack adds one network (struct, attempt map).
// A quorum adds its replica slice, itself, and the names s1 and s2 (s0
// is a constant).
func TestSpecBuildAllocs(t *testing.T) {
	netCfg := netsim.Config{Seed: 2, Latency: 0.1}
	for n, want := range map[int]float64{1: 2 + 5, 3: 2 + 3*5 + 2 + 2} {
		spec := Spec{Backends: make([]Store, n), Faults: &allocPlan, Net: &netCfg}
		for i := range spec.Backends {
			spec.Backends[i] = NewMemStore()
		}
		pinAllocs(t, fmt.Sprintf("Spec.Build, %d replicas", n), want, func() error { _, err := spec.Build(); return err })
	}
}
