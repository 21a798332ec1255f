package failure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadTraceSpill pins the spill reader's contract on arbitrary
// bytes: it never panics, it stops on a typed error (a bad header, or
// ErrSpillTail for a torn or corrupt record), and every block it
// accepts re-encodes to exactly the bytes it was read from.
func FuzzReadTraceSpill(f *testing.F) {
	dir := f.TempDir()
	good := filepath.Join(dir, "good.trace")
	w, err := CreateTraceSpill(good, "fp", 0.5)
	if err != nil {
		f.Fatal(err)
	}
	for _, blk := range [][][]float64{{{1, 2.5}, {}}, {{3}}} {
		if err := w.WriteBlock(0, blk); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	head := len(spillMagic) + 4 + 8 + 4 + len("fp")
	f.Add(data)
	// Torn writes: cuts inside the header, the fixed record fields, the
	// counts, the gaps and the CRC.
	for _, cut := range []int{0, head - 1, head, head + 5, head + 14, head + 22, len(data) - 1} {
		f.Add(data[:cut])
	}
	rotted := bytes.Clone(data)
	rotted[head+20] ^= 0x40
	f.Add(rotted)
	// One record claiming 2^28 gaps that the file does not hold.
	over := binary.LittleEndian.AppendUint64(bytes.Clone(data[:head]), 0)
	over = binary.LittleEndian.AppendUint32(over, 1)
	f.Add(binary.LittleEndian.AppendUint32(over, spillMaxGaps))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := filepath.Join(t.TempDir(), "in.trace")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenTraceSpill(in)
		if err != nil {
			return
		}
		defer r.Close()
		var blocks []SpilledBlock
		for {
			blk, err := r.Next()
			if err == io.EOF || errors.Is(err, ErrSpillTail) {
				break
			}
			if err != nil {
				t.Fatalf("untyped record error: %v", err)
			}
			blocks = append(blocks, blk)
		}
		out := filepath.Join(t.TempDir(), "out.trace")
		w, err := CreateTraceSpill(out, r.Meta(), r.Rate())
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range blocks {
			if err := w.WriteBlock(blk.Index, blk.Reps); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want := data[:r.Offset()]; !bytes.Equal(got, want) {
			t.Fatalf("accepted blocks re-encode differently:\n got %x\nwant %x", got, want)
		}
	})
}
