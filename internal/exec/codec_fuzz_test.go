package exec

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/failure"
	"repro/internal/store"
)

// statePayloads returns the payloads a short run persists: a
// chain root and the payloads chained onto it.
func statePayloads(t testing.TB) [][]byte {
	t.Helper()
	mem := store.NewMemStore()
	st := store.Checked(mem)
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1)
	if _, err := Execute(segmentChain(t, 6), src, Options{Store: st, Downtime: 1}); err != nil {
		t.Fatal(err)
	}
	seqs, err := st.List("run")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, seq := range seqs {
		p, err := st.Load("run", seq)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// mutations returns p truncated at, and bit-flipped at, each given
// offset, plus the empty input and p one byte short and one byte long.
func mutations(p []byte, cuts ...int) [][]byte {
	out := [][]byte{nil, p[:0]}
	for _, c := range cuts {
		if c > 0 && c < len(p) {
			out = append(out, p[:c], p[:c-1])
			flipped := bytes.Clone(p)
			flipped[c] ^= 0x81
			out = append(out, flipped)
		}
	}
	return append(out, p[:len(p)-1], append(bytes.Clone(p), 0))
}

// FuzzDecodeState pins the checkpoint-payload decoder's contract on
// arbitrary bytes: it never panics, and it either rejects the input
// with a typed error or decodes it to a state that encodes back to the
// same bytes.
func FuzzDecodeState(f *testing.F) {
	for _, p := range statePayloads(f) {
		// Slot offsets: schema, seq, base, baseLen, delta count.
		for _, m := range mutations(p, 0, 4+8, 4+8*23, 4+8*24, stateHeaderSize) {
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeState(data)
		if err != nil {
			if !errors.Is(err, errState) && !errors.Is(err, errJournal) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if got := encodeState(st); !bytes.Equal(got, data) {
			t.Fatalf("encode(decode(x)) != x:\n got %x\nwant %x", got, data)
		}
	})
}

// FuzzUnmarshalJournal pins the journal decoder's contract on arbitrary
// bytes: it never panics, and it either rejects the input with
// errJournal or decodes a journal that marshals back to the same bytes.
func FuzzUnmarshalJournal(f *testing.F) {
	for _, p := range statePayloads(f) {
		delta := p[stateHeaderSize:]
		for _, m := range mutations(delta, 0, 8, len(delta)-eventSize) {
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := UnmarshalJournal(data)
		if err != nil {
			if !errors.Is(err, errJournal) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if got := j.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("marshal(unmarshal(x)) != x:\n got %x\nwant %x", got, data)
		}
	})
}

// TestSchema3PayloadRejected pins the schema bump: a schema-3 payload
// (28 state slots followed by the whole journal prefix) is a typed
// decode error, and a store holding one makes Execute fail loudly rather
// than silently start over.
func TestSchema3PayloadRejected(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1) }
	j := Journal{
		{Kind: EvSegmentStart},
		{Kind: EvTaskDone, Time: 3},
		{Kind: EvTaskDone, Time: 4, Arg: 1},
		{Kind: EvCheckpoint, Time: 5, Seq: 1},
	}
	p := make([]byte, 4+8*28)
	putU32(p, 3)
	putU64(p[4:], w.Fingerprint()^(src().Fingerprint()*0x9e3779b97f4a7c15))
	putU64(p[4+8:], 1)   // seq
	putU64(p[4+8*2:], 1) // next segment
	putU64(p[4+8*3:], 5) // clock (bits; any value)
	p = append(p, j.Marshal()...)
	if _, err := decodeState(p); !errors.Is(err, errState) {
		t.Fatalf("decodeState(schema 3) = %v, want errState", err)
	}
	st := store.Checked(store.NewMemStore())
	if err := st.Save("run", 1, p); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(w, src(), Options{Store: st, Downtime: 1})
	if !errors.Is(err, errState) {
		t.Fatalf("Execute over a schema-3 checkpoint = %v, want errState", err)
	}
	if len(res.Journal) != 0 {
		t.Fatalf("Execute ran %d events past an unreadable checkpoint", len(res.Journal))
	}
}

// TestSchema4PayloadRejected pins the schema bump: a schema-4 payload
// (31 state slots, with the next-segment slot and the store health's
// failure window and attempt counters that schema 5 dropped) is a
// typed decode error, and a store holding one makes Execute fail
// loudly.
func TestSchema4PayloadRejected(t *testing.T) {
	p := statePayloads(t)[0]
	old := make([]byte, 4, len(p)+8*5)
	putU32(old, 4)
	for i := 0; i < stateSlots; i++ {
		old = append(old, p[4+8*i:4+8*(i+1)]...)
		switch i {
		case 1: // after seq: the next segment, always seq
			old = append(old, p[4+8:4+16]...)
		case 13: // after the health EWMAs: bits, nbits, attempts, failures
			old = append(old, make([]byte, 8*4)...)
		}
	}
	old = append(old, p[stateHeaderSize:]...)
	if _, err := decodeState(old); !errors.Is(err, errState) {
		t.Fatalf("decodeState(schema 4) = %v, want errState", err)
	}
	st := store.Checked(store.NewMemStore())
	if err := st.Save("run", 1, old); err != nil {
		t.Fatal(err)
	}
	src := NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1)
	if _, err := Execute(segmentChain(t, 6), src, Options{Store: st, Downtime: 1}); !errors.Is(err, errState) {
		t.Fatalf("Execute over a schema-4 checkpoint = %v, want errState", err)
	}
}
