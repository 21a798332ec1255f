package store

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// tornFrames returns sealed frames as the fault injector leaves them:
// whole frames, strict prefixes cut by TornWrite, and a frame rotted by
// one flipped bit.
func tornFrames(tb testing.TB) [][]byte {
	tb.Helper()
	mem := NewMemStore()
	torn := Checked(NewFaultStore(mem, FaultPlan{Seed: 8, TornWrite: 1}))
	whole := Checked(mem)
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload"), 9), encodeLease(LeaseState{Epoch: 3, Holder: "w1", Expiry: 12.5})}
	var out [][]byte
	for i, p := range payloads {
		if err := whole.Save("whole", uint64(i), p); err != nil {
			tb.Fatal(err)
		}
		if err := torn.Save("torn", uint64(i), p); !errors.Is(err, ErrInjectedWrite) {
			tb.Fatalf("torn save reported %v", err)
		}
		for _, run := range []string{"whole", "torn"} {
			frame, err := mem.Load(run, uint64(i))
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, frame)
		}
	}
	rotted := bytes.Clone(out[len(out)-2])
	rotted[frameOverhead] ^= 0x10
	return append(out, rotted)
}

// FuzzOpenFrame pins the store codec's contract on arbitrary bytes: it
// never panics, it rejects damage with ErrCorrupt, and a frame it
// accepts is exactly the seal of the payload it returns.
func FuzzOpenFrame(f *testing.F) {
	for _, frame := range tornFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := open(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		if got := seal(payload); !bytes.Equal(got, data) {
			t.Fatalf("seal(open(x)) != x:\n got %x\nwant %x", got, data)
		}
	})
}

// FuzzDecodeLease pins the lease-record decoder's contract on arbitrary
// bytes: it never panics, it rejects garbage with errLeaseRecord, and a
// record it accepts encodes back to the same bytes.
func FuzzDecodeLease(f *testing.F) {
	for _, st := range []LeaseState{{}, {Epoch: 1, Holder: "w1", Expiry: 30}, {Epoch: math.MaxUint64, Holder: "zombie", Expiry: math.Inf(1)}} {
		rec := encodeLease(st)
		for _, cut := range []int{0, 3, len(leaseMagic) + 1, len(rec) - 1, len(rec)} {
			f.Add(rec[:cut])
		}
		skewed := bytes.Clone(rec)
		skewed[len(leaseMagic)] = leaseVersion + 1
		f.Add(skewed)
		f.Add(append(bytes.Clone(rec), 'x'))
	}
	for _, frame := range tornFrames(f) {
		if payload, err := open(frame); err == nil {
			f.Add(payload)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeLease(data)
		if err != nil {
			if !errors.Is(err, errLeaseRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if got := encodeLease(st); !bytes.Equal(got, data) {
			t.Fatalf("encodeLease(decodeLease(x)) != x:\n got %x\nwant %x", got, data)
		}
	})
}
