package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/failure"
	"repro/internal/store"
)

// payloadGolden is the sha256 of every frame TestPayloadGolden's run
// leaves in its store, in sequence order. It pins the checkpoint
// payload byte for byte: a change to the slot order, a slot's encoding
// or the delta framing moves it. Like the experiment fingerprints it
// is compared on amd64 only, where float arithmetic is not fused.
const payloadGolden = "a79045e3fd0ef8514d4dc2add5f9418d14fa592e03bfa6937e18f6eb8a627863"

// TestPayloadGolden runs a fixed adaptive execution — injected save
// latency, write faults, replans, a fall to LevelDown and a ride-out
// probe that re-admits the store — and hashes every frame it persists.
func TestPayloadGolden(t *testing.T) {
	const run = "golden"
	cp, w := segmentProblem(t, 60), segmentChain(t, 60)
	mem := store.NewMemStore()
	res, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.05}, 77, 1), Options{
		RunID: run, Downtime: 1,
		Store: store.Checked(store.NewFaultStore(mem, store.FaultPlan{Seed: 23, MeanLatency: 0.1, WriteFail: 0.45})),
		Adaptive: &AdaptiveOptions{
			Retry:       NoRetry{},
			Replanner:   ChainReplanner{CP: cp},
			ReplanRatio: 1.3,
			Cooldown:    4,
			DownAfter:   2,
			ProbeEvery:  2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	downs, readmits := 0, 0
	for _, e := range res.Journal {
		if e.Kind == EvDegrade && DegradeLevel(e.Arg) == LevelDown {
			downs++
		}
		if e.Kind == EvDegrade && DegradeLevel(e.Arg) == LevelDegraded {
			readmits++
		}
	}
	if res.Replans == 0 || res.GiveUps == 0 || downs == 0 || readmits == 0 || res.Saves == 0 {
		t.Fatalf("run misses a feature the golden must cover: replans %d, give-ups %d, downs %d, re-admissions %d, saves %d",
			res.Replans, res.GiveUps, downs, readmits, res.Saves)
	}
	seqs, err := mem.List(run)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, seq := range seqs {
		frame, err := mem.Load(run, seq)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(frame)
	}
	if got := hex.EncodeToString(h.Sum(nil)); runtime.GOARCH == "amd64" && got != payloadGolden {
		t.Fatalf("payload golden = %s, want %s (%d frames; replans %d, give-ups %d, downs %d, re-admissions %d)",
			got, payloadGolden, len(seqs), res.Replans, res.GiveUps, downs, readmits)
	}
}

// leafFields maps the address of every non-struct field reachable
// from v, an addressable struct, to its dotted path and type.
func leafFields(v reflect.Value, path string, out map[uintptr]reflect.StructField) {
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		name := sf.Name
		if path != "" {
			name = path + "." + sf.Name
		}
		if f.Kind() == reflect.Struct {
			leafFields(f, name, out)
			continue
		}
		sf.Name = name
		out[f.UnsafeAddr()] = sf
	}
}

// TestSlotsCoverEveryField pins the single layout declaration: every
// leaf field of execState is carried by exactly one payload slot, with
// the slot pointing at that field's own type. The exceptions are the
// journal delta (encoded after the slots), the resolved journal (never
// encoded) and Metrics.Makespan (only set once the run ends).
func TestSlotsCoverEveryField(t *testing.T) {
	st := &execState{}
	leaves := map[uintptr]reflect.StructField{}
	leafFields(reflect.ValueOf(st).Elem(), "", leaves)
	seen := map[string]int{}
	for i, p := range st.slots() {
		pv := reflect.ValueOf(p)
		f, ok := leaves[pv.Pointer()]
		if !ok {
			t.Fatalf("slot %d points outside execState's leaf fields", i)
		}
		if pv.Type().Elem() != f.Type {
			t.Fatalf("slot %d is a %v, field %s is a %v", i, pv.Type(), f.Name, f.Type)
		}
		seen[f.Name]++
	}
	unencoded := map[string]bool{"delta": true, "journal": true, "coreRecord.met.Makespan": true}
	for _, f := range leaves {
		switch n := seen[f.Name]; {
		case unencoded[f.Name] && n != 0:
			t.Errorf("%s is encoded %d times, want never", f.Name, n)
		case !unencoded[f.Name] && n != 1:
			t.Errorf("%s is carried by %d slots, want exactly 1", f.Name, n)
		}
	}
	if got, want := len(leaves)-len(unencoded), stateSlots; got != want {
		t.Errorf("execState has %d encoded leaf fields, want %d slots", got, want)
	}
}

// TestDecodeRejectsLevelPastDown pins the typed level slot: a payload
// whose degradation level is past LevelDown fails to decode with
// errState, even behind a valid store frame, and a store holding one
// makes Execute fail loudly.
func TestDecodeRejectsLevelPastDown(t *testing.T) {
	payloads := statePayloads(t)
	p := payloads[len(payloads)-1]
	var probe execState
	slot := -1
	for i, sp := range probe.slots() {
		if sp == any(&probe.level) {
			slot = i
		}
	}
	putU64(p[4+8*slot:], 7)
	st := store.Checked(store.NewMemStore())
	seq := uint64(len(payloads))
	if err := st.Save("run", seq, p); err != nil {
		t.Fatal(err)
	}
	data, err := st.Load("run", seq)
	if err != nil {
		t.Fatalf("CRC-valid frame did not load: %v", err)
	}
	if _, err := decodeState(data); !errors.Is(err, errState) {
		t.Fatalf("decodeState(level 7) = %v, want errState", err)
	}
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1)
	if _, err := Execute(segmentChain(t, 6), src, Options{Store: st, Downtime: 1}); !errors.Is(err, errState) {
		t.Fatalf("Execute over a level-7 checkpoint = %v, want errState", err)
	}
}
