package failure

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/rng"
)

func spillBlocks(t *testing.T, seed uint64, n int) []SpilledBlock {
	t.Helper()
	r := rng.New(seed)
	blocks := make([]SpilledBlock, n)
	for b := range blocks {
		reps := make([][]float64, 1+r.IntN(5))
		for i := range reps {
			gaps := make([]float64, r.IntN(20))
			for j := range gaps {
				gaps[j] = r.ExpFloat64()
			}
			reps[i] = gaps
		}
		blocks[b] = SpilledBlock{Index: b, Reps: reps}
	}
	return blocks
}

func writeSpill(t *testing.T, path, meta string, rate float64, blocks []SpilledBlock) {
	t.Helper()
	w, err := CreateTraceSpill(path, meta, rate)
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
}

func sameBlocks(a, b []SpilledBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || len(a[i].Reps) != len(b[i].Reps) {
			return false
		}
		for j := range a[i].Reps {
			if len(a[i].Reps[j]) != len(b[i].Reps[j]) {
				return false
			}
			for k := range a[i].Reps[j] {
				if math.Float64bits(a[i].Reps[j][k]) != math.Float64bits(b[i].Reps[j][k]) {
					return false
				}
			}
		}
	}
	return true
}

func TestSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.trace")
	blocks := spillBlocks(t, 1, 12)
	writeSpill(t, path, "fp:test=1", 0.25, blocks)
	got, meta, rate, _, tail, err := ReadTraceSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if tail {
		t.Error("clean spill reported a corrupt tail")
	}
	if meta != "fp:test=1" || rate != 0.25 {
		t.Errorf("header meta=%q rate=%v", meta, rate)
	}
	if !sameBlocks(got, blocks) {
		t.Error("round trip changed block contents")
	}
	// Empty replications and empty blocks are representable.
	path2 := filepath.Join(t.TempDir(), "empty.trace")
	writeSpill(t, path2, "", 1, []SpilledBlock{{Index: 0, Reps: [][]float64{{}, {1.5}, {}}}, {Index: 1, Reps: nil}})
	got2, _, _, _, _, err := ReadTraceSpill(path2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 || len(got2[0].Reps) != 3 || len(got2[0].Reps[1]) != 1 || len(got2[1].Reps) != 0 {
		t.Errorf("degenerate blocks mangled: %+v", got2)
	}
}

// TestSpillTruncatedTail simulates a kill mid-write: every truncation
// point inside the last record must yield the complete prefix plus a
// tail marker, and AppendTraceSpill at the reported offset must produce
// a file equivalent to an uninterrupted run.
func TestSpillTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	blocks := spillBlocks(t, 2, 6)
	writeSpill(t, full, "fp", 0.5, blocks)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Find the offset where the last record starts by reading 5 blocks.
	r, err := OpenTraceSpill(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cut5 := r.Offset()
	r.Close()
	for _, cut := range []int64{cut5 + 1, cut5 + 13, int64(len(data)) - 1} {
		path := filepath.Join(dir, "cut.trace")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, _, off, tail, err := ReadTraceSpill(path)
		if err != nil {
			t.Fatal(err)
		}
		if !tail {
			t.Errorf("cut=%d: truncated spill not flagged", cut)
		}
		if off != cut5 {
			t.Errorf("cut=%d: good offset %d, want %d", cut, off, cut5)
		}
		if !sameBlocks(got, blocks[:5]) {
			t.Errorf("cut=%d: prefix blocks corrupted", cut)
		}
		// Resume: truncate and append the lost block.
		w, err := AppendTraceSpill(path, off)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(blocks[5].Index, blocks[5].Reps); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		resumed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(resumed) != string(data) {
			t.Errorf("cut=%d: resumed file differs from uninterrupted run", cut)
		}
	}
}

// TestSpillCorruptPayload flips a byte inside a record: the CRC must
// catch it and reading must stop at the previous record boundary.
func TestSpillCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.trace")
	blocks := spillBlocks(t, 3, 4)
	writeSpill(t, path, "fp", 0.5, blocks)
	r, err := OpenTraceSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	good := r.Offset()
	r.Close()
	data, _ := os.ReadFile(path)
	data[good+20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, _, off, tail, err := ReadTraceSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tail || off != good || len(got) != 3 {
		t.Errorf("corrupt record: tail=%v off=%d blocks=%d (want true, %d, 3)", tail, off, len(got), good)
	}
}

func TestSpillRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "not-a-spill")
	if err := os.WriteFile(bad, []byte("definitely not a trace spill file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceSpill(bad); err == nil {
		t.Error("foreign file accepted")
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("CHK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceSpill(short); err == nil {
		t.Error("short file accepted")
	}
	if _, err := OpenTraceSpill(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReplayTrace pins the replay path: a RecordedTrace over a live
// process and a ReplayTrace over its spilled gaps drive cursors
// bit-identically, and exhaustion is detected, not invented.
func TestReplayTrace(t *testing.T) {
	src := NewExponentialProcess(2, rng.New(77))
	live := NewRecordedTrace(src)
	cur := live.Cursor()
	for i := 0; i < 40; i++ {
		cur.Advance(cur.NextFailure())
		cur.ObserveFailure()
	}
	gaps := append([]float64(nil), live.Gaps()...)
	replay := ReplayTrace(gaps, 2)
	if replay.Exhausted() {
		t.Error("fresh replay already exhausted")
	}
	rc := replay.Cursor()
	for i := range gaps {
		if got := rc.NextFailure(); math.Float64bits(got) != math.Float64bits(gaps[i]) {
			t.Fatalf("gap %d: replay %v, recorded %v", i, got, gaps[i])
		}
		rc.Advance(rc.NextFailure())
		if i+1 < len(gaps) {
			rc.ObserveFailure()
		}
	}
	if replay.Exhausted() {
		t.Error("replay exhausted within the recording")
	}
	if rc.Rate() != 2 {
		t.Errorf("replay rate %v", rc.Rate())
	}
	rc.ObserveFailure() // step past the end
	if !math.IsInf(rc.NextFailure(), 1) {
		t.Errorf("past-end gap %v, want +Inf", rc.NextFailure())
	}
	if !replay.Exhausted() {
		t.Error("past-end read did not mark the replay exhausted")
	}
}

func TestSpillReaderNextEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.trace")
	writeSpill(t, path, "m", 1, spillBlocks(t, 4, 2))
	r, err := OpenTraceSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("clean end gave %v, want io.EOF", err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) && err != io.EOF {
		t.Errorf("repeated read past end gave %v", err)
	}
}

// TestSpillOverclaimedRecordAllocatesNothing pins the reader's
// allocation bound: a 41-byte spill whose one record claims 2^28 gaps
// (2 GiB) is a tail, rejected before the gap buffer is allocated.
func TestSpillOverclaimedRecordAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overclaim.trace")
	writeSpill(t, path, "m", 1, nil)
	rec := binary.LittleEndian.AppendUint64(nil, 0)           // index
	rec = binary.LittleEndian.AppendUint32(rec, 1)            // reps
	rec = binary.LittleEndian.AppendUint32(rec, spillMaxGaps) // gap count
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != 41 {
		t.Fatalf("spill is %v bytes (%v), want 41", info.Size(), err)
	}
	r, err := OpenTraceSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSpillTail) {
		t.Fatalf("overclaimed record gave %v, want ErrSpillTail", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the record allocated %d bytes", grew)
	}
}
