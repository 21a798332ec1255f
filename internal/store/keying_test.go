package store

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attempt"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// TestStackKeyingInvariance pins logical keying across a whole stack:
// on three replicas with a fault injector and a lossy network each,
// one extra Load or List leaves every other key's outcome and charged
// latency unchanged. Only later operations on the extra one's own key
// may move (their attempt count advanced). The deprecated LogicalKeys
// field changes nothing.
func TestStackKeyingInvariance(t *testing.T) {
	plan := FaultPlan{Seed: 61, WriteFail: 0.2, TornWrite: 0.15, ReadFail: 0.2, MeanLatency: 0.4}
	build := func(plan FaultPlan) Store {
		st, err := Spec{
			Backends: []Store{NewMemStore(), NewMemStore(), NewMemStore()},
			Faults:   &plan,
			Net:      &netsim.Config{Seed: 62, Latency: 0.05, Jitter: 0.3, Loss: 0.1},
			Timeout:  1,
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	type key struct {
		op  string
		run string
		seq uint64
	}
	type entry struct {
		key
		outcome string
	}
	// trace runs a fixed script of saves, lists and loads over two
	// runs, issuing extra just before the loads, and records every
	// scripted operation's outcome and LastOp latency.
	trace := func(st Store, extra func(Store)) []entry {
		var out []entry
		note := func(k key, err error) {
			last, _ := LastOp(st, k.run)
			out = append(out, entry{k, fmt.Sprintf("lat=%v err=%v", last.Latency, err)})
		}
		runs := []string{"a", "b"}
		for seq := uint64(1); seq <= 6; seq++ {
			for _, run := range runs {
				note(key{"save", run, seq}, st.Save(run, seq, []byte{byte(seq), 7, 7, 7}))
			}
		}
		if extra != nil {
			extra(st)
		}
		for _, run := range runs {
			_, err := st.List(run)
			note(key{"list", run, 0}, err)
			for seq := uint64(1); seq <= 6; seq++ {
				_, err := st.Load(run, seq)
				note(key{"load", run, seq}, err)
			}
		}
		return out
	}
	ref := trace(build(plan), nil)
	for _, c := range []struct {
		skip  key
		extra func(Store)
	}{
		{key{"load", "a", 3}, func(st Store) { st.Load("a", 3) }},
		{key{"list", "a", 0}, func(st Store) { st.List("a") }},
	} {
		got := trace(build(plan), c.extra)
		for i, e := range ref {
			if e.key != c.skip && got[i] != e {
				t.Errorf("extra %s %s/%d moved %s %s/%d: %s, want %s",
					c.skip.op, c.skip.run, c.skip.seq, e.op, e.run, e.seq, got[i].outcome, e.outcome)
			}
		}
	}
	logical := plan
	logical.LogicalKeys = true
	if got := trace(build(logical), nil); !reflect.DeepEqual(got, ref) {
		t.Error("LogicalKeys: true changed the trace")
	}
	// The script must exercise the injector, or invariance is vacuous.
	fails := 0
	for _, e := range ref {
		if !strings.HasSuffix(e.outcome, "err=<nil>") {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("script saw no failed operation")
	}
}

// faultOpKey is one logical operation, the key the reference injector
// counts attempts under.
type faultOpKey struct {
	kind uint64
	run  string
	seq  uint64
}

// FuzzAttemptCounters: over any interleaving of runs, op kinds and
// seqs — small seqs, seqs at and past attempt.DenseCap, 2⁶⁴−1 — the
// injector's per-run attempt tables count exactly what one map entry
// per logical operation counts, and each operation's stream draws what
// rng.Derive(seed, kind, fnv1a(run), seq, attempt) draws, latency
// included.
func FuzzAttemptCounters(f *testing.F) {
	f.Add(uint64(1), []byte{0x01, 0x00, 0x01, 0x00, 0x21, 0x0b, 0x21, 0x0b})
	f.Add(uint64(9), []byte{0x12, 0x0c, 0x12, 0x0d, 0x73, 0x0f, 0x02, 0x0e, 0x12, 0x0c})
	runs := []string{"r", "run-1", "run-1~lease", "x"}
	kinds := []uint64{opSave, opLoad, opList, opDelete, 0, 7, 8, 1<<64 - 1}
	seqs := []uint64{0, 1, 2, 3, 9, 100, 4096, attempt.DenseCap - 2, attempt.DenseCap - 1,
		attempt.DenseCap, attempt.DenseCap + 1, 1 << 32, 1 << 63, 1<<64 - 2, 1<<64 - 1, 5}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		plan := FaultPlan{Seed: seed, MeanLatency: 0.5}
		fs := NewFaultStore(NewMemStore(), plan)
		oracle := map[faultOpKey]uint64{}
		for i := 0; i+2 <= len(ops); i += 2 {
			b0, b1 := ops[i], ops[i+1]
			k := faultOpKey{kind: kinds[b0&7], run: runs[b0>>3&3], seq: seqs[b1&15] + uint64(b1>>4)}
			oracle[k]++
			want := rng.Derive(plan.Seed, k.kind, rng.HashString(k.run), k.seq, oracle[k])
			wantLat := want.ExpFloat64() * plan.MeanLatency
			got := fs.opStream(k.kind, k.run, k.seq)
			if lat := fs.LastOp(k.run).Latency; lat != wantLat {
				t.Fatalf("op %d %+v attempt %d: latency %v, reference %v", i/2, k, oracle[k], lat, wantLat)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("op %d %+v attempt %d: drew %#x, reference %#x", i/2, k, oracle[k], g, w)
			}
		}
	})
}
