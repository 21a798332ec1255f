package failure

// Trace spill: a compact binary log of the gap sequences recorded by a
// campaign shard, written behind the recording loop (one record per
// completed block) and replayed sequentially on resume. The format is
// what makes killed campaigns resumable *bit-identically*: a replayed
// block feeds the exact recorded gaps back through the CRN loop, so the
// candidate makespans — and every statistic folded from them — match
// the uninterrupted run to the last bit.
//
// Layout (little-endian throughout):
//
//	header:  magic "CHKTRACE" | version u32 | rate f64 | metaLen u32 | meta bytes
//	record:  index u64 | reps u32 | gapCount u32 × reps | gaps f64 × Σcounts | crc32 u32
//
// meta is an opaque fingerprint string supplied by the campaign layer;
// readers surface it so mismatched spills fail loudly instead of
// replaying the wrong environment. The crc32 (IEEE) covers the encoded
// record payload. A kill mid-write leaves a truncated or corrupt tail;
// ReadTraceSpill treats that as the end of the good prefix and reports
// the offset where appending may resume after truncation.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/fsx"
)

const (
	spillMagic   = "CHKTRACE"
	spillVersion = 1
	// Sanity bounds applied while decoding, so a corrupt length field
	// cannot demand a giant allocation: replications per block and gaps
	// per replication far beyond any real campaign are rejected as
	// corruption.
	spillMaxReps = 1 << 24
	spillMaxGaps = 1 << 28
)

// SpilledBlock is one campaign block's recorded environment: the
// inter-failure gap sequence of every replication in the block.
type SpilledBlock struct {
	Index int
	Reps  [][]float64
}

// TraceSpillWriter appends block records to a spill file. Each
// WriteBlock flushes and fsyncs through to the file, so neither a kill
// nor a host crash loses more than the block being written — never a
// completed one. (Flush alone only survives a killed process; the page
// cache still dies with the host, which is exactly the failure the
// resume path exists for.)
type TraceSpillWriter struct {
	f *os.File
	w *bufio.Writer
}

// CreateTraceSpill creates (truncating) a spill file with the given
// fingerprint meta string and nominal failure rate.
func CreateTraceSpill(path, meta string, rate float64) (*TraceSpillWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(spillMagic); err != nil {
		f.Close()
		return nil, err
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], spillVersion)
	w.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(rate))
	w.Write(scratch[:])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(meta)))
	w.Write(scratch[:4])
	if _, err := w.WriteString(meta); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	// Make the header durable (and, via the directory fsync, the file's
	// very existence): a resume that finds no spill re-simulates from
	// scratch, but a resume that finds a header-less file fails loudly.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &TraceSpillWriter{f: f, w: w}, nil
}

// AppendTraceSpill reopens an existing spill for appending after
// truncating it to offset — the resume path, with offset taken from
// ReadTraceSpill so the corrupt tail of a killed run is discarded.
func AppendTraceSpill(path string, offset int64) (*TraceSpillWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &TraceSpillWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// WriteBlock appends one block record and flushes it to the file.
func (s *TraceSpillWriter) WriteBlock(index int, reps [][]float64) error {
	if index < 0 {
		return fmt.Errorf("failure: negative spill block index %d", index)
	}
	total := 0
	for _, r := range reps {
		total += len(r)
	}
	buf := make([]byte, 0, 12+4*len(reps)+8*total)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(index))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(reps)))
	for _, r := range reps {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
	}
	for _, r := range reps {
		for _, g := range r {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g))
		}
	}
	if _, err := s.w.Write(buf); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	if _, err := s.w.Write(crc[:]); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close flushes, fsyncs and closes the underlying file.
func (s *TraceSpillWriter) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// TraceSpillReader reads a spill sequentially.
type TraceSpillReader struct {
	f      *os.File
	r      *bufio.Reader
	meta   string
	rate   float64
	offset int64 // end of the last successfully decoded record
	size   int64 // file size at open: no record may claim more
}

// OpenTraceSpill opens path and decodes the header.
func OpenTraceSpill(path string) (*TraceSpillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	head := make([]byte, len(spillMagic)+4+8+4)
	if _, err := io.ReadFull(r, head); err != nil {
		f.Close()
		return nil, fmt.Errorf("failure: spill %s: truncated header: %w", path, err)
	}
	if string(head[:len(spillMagic)]) != spillMagic {
		f.Close()
		return nil, fmt.Errorf("failure: %s is not a trace spill (bad magic)", path)
	}
	p := len(spillMagic)
	if v := binary.LittleEndian.Uint32(head[p:]); v != spillVersion {
		f.Close()
		return nil, fmt.Errorf("failure: spill %s has unsupported version %d", path, v)
	}
	p += 4
	rate := math.Float64frombits(binary.LittleEndian.Uint64(head[p:]))
	p += 8
	metaLen := binary.LittleEndian.Uint32(head[p:])
	if metaLen > 1<<20 {
		f.Close()
		return nil, fmt.Errorf("failure: spill %s claims %d-byte meta", path, metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(r, meta); err != nil {
		f.Close()
		return nil, fmt.Errorf("failure: spill %s: truncated meta: %w", path, err)
	}
	return &TraceSpillReader{
		f:      f,
		r:      r,
		meta:   string(meta),
		rate:   rate,
		offset: int64(len(head)) + int64(metaLen),
		size:   info.Size(),
	}, nil
}

// Meta returns the fingerprint string the spill was created with.
func (s *TraceSpillReader) Meta() string { return s.meta }

// Rate returns the nominal failure rate recorded in the header.
func (s *TraceSpillReader) Rate() float64 { return s.rate }

// Offset returns the file offset just past the last complete record —
// where AppendTraceSpill should truncate to resume after a kill.
func (s *TraceSpillReader) Offset() int64 { return s.offset }

// ErrSpillTail marks a truncated or corrupt record tail: the expected
// outcome of a killed writer, distinguished from a clean io.EOF so
// resume logic knows the file needs truncating before appending.
var ErrSpillTail = errors.New("failure: truncated or corrupt spill tail")

// Next decodes the next block record. io.EOF signals a clean end;
// ErrSpillTail a truncated or corrupt tail (resume by truncating to
// Offset and re-running the lost blocks). A record whose declared
// counts need more bytes than remain in the file is a tail too, and is
// rejected before anything is allocated for it.
func (s *TraceSpillReader) Next() (SpilledBlock, error) {
	var fixed [12]byte
	if _, err := io.ReadFull(s.r, fixed[:]); err != nil {
		if err == io.EOF {
			return SpilledBlock{}, io.EOF
		}
		return SpilledBlock{}, ErrSpillTail
	}
	index := binary.LittleEndian.Uint64(fixed[:8])
	reps := binary.LittleEndian.Uint32(fixed[8:])
	left := uint64(max(s.size-s.offset-int64(len(fixed)), 0))
	if index > 1<<40 || reps > spillMaxReps || 4*uint64(reps) > left {
		return SpilledBlock{}, ErrSpillTail
	}
	left -= 4 * uint64(reps)
	counts := make([]byte, 4*reps)
	if _, err := io.ReadFull(s.r, counts); err != nil {
		return SpilledBlock{}, ErrSpillTail
	}
	total := uint64(0)
	for i := uint32(0); i < reps; i++ {
		c := binary.LittleEndian.Uint32(counts[4*i:])
		if c > spillMaxGaps {
			return SpilledBlock{}, ErrSpillTail
		}
		total += uint64(c)
	}
	if total > spillMaxGaps || 8*total+4 > left {
		return SpilledBlock{}, ErrSpillTail
	}
	gaps := make([]byte, 8*total)
	if _, err := io.ReadFull(s.r, gaps); err != nil {
		return SpilledBlock{}, ErrSpillTail
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(s.r, crcBuf[:]); err != nil {
		return SpilledBlock{}, ErrSpillTail
	}
	crc := crc32.NewIEEE()
	crc.Write(fixed[:])
	crc.Write(counts)
	crc.Write(gaps)
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc.Sum32() {
		return SpilledBlock{}, ErrSpillTail
	}
	blk := SpilledBlock{Index: int(index), Reps: make([][]float64, reps)}
	off := 0
	for i := uint32(0); i < reps; i++ {
		c := int(binary.LittleEndian.Uint32(counts[4*i:]))
		rep := make([]float64, c)
		for j := 0; j < c; j++ {
			rep[j] = math.Float64frombits(binary.LittleEndian.Uint64(gaps[off:]))
			off += 8
		}
		blk.Reps[i] = rep
	}
	s.offset += int64(12 + len(counts) + len(gaps) + 4)
	return blk, nil
}

// Close closes the underlying file.
func (s *TraceSpillReader) Close() error { return s.f.Close() }

// ReadTraceSpill decodes every complete block of a spill in one call,
// returning the blocks, the header meta and rate, and the offset of the
// end of the good prefix. A truncated or corrupt tail is NOT an error —
// it is the expected state after a kill; tail reports whether one was
// found (the caller should truncate to offset before appending).
func ReadTraceSpill(path string) (blocks []SpilledBlock, meta string, rate float64, offset int64, tail bool, err error) {
	r, err := OpenTraceSpill(path)
	if err != nil {
		return nil, "", 0, 0, false, err
	}
	defer r.Close()
	for {
		blk, err := r.Next()
		if err == io.EOF {
			return blocks, r.Meta(), r.Rate(), r.Offset(), false, nil
		}
		if errors.Is(err, ErrSpillTail) {
			return blocks, r.Meta(), r.Rate(), r.Offset(), true, nil
		}
		if err != nil {
			return nil, "", 0, 0, false, err
		}
		blocks = append(blocks, blk)
	}
}
