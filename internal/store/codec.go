package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Sealed-frame layout (little-endian):
//
//	magic "CHKPTBX1" | schema u32 | payloadLen u64 | payload | crc32 u32
//
// The CRC (IEEE) covers everything before it — magic, schema, length and
// payload — so any truncation or bit flip anywhere in the frame fails
// verification. The schema version is the *store codec's* version; the
// executor keeps its own payload schema version inside the payload.
const (
	codecMagic  = "CHKPTBX1"
	codecSchema = 1
	// frameOverhead is the sealed size minus the payload size.
	frameOverhead = len(codecMagic) + 4 + 8 + 4
	// maxPayload bounds decoded payload allocations so a corrupt length
	// field cannot demand gigabytes.
	maxPayload = 1 << 30
)

// seal wraps payload in a checksummed, schema-versioned frame.
func seal(payload []byte) []byte {
	buf := make([]byte, 0, len(payload)+frameOverhead)
	buf = append(buf, codecMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, codecSchema)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// open verifies a sealed frame and returns its payload. Every failure
// mode wraps ErrCorrupt: the caller's contract is "good payload or
// ErrCorrupt", nothing finer. The payload is a sub-slice of sealed, not
// a copy: Load hands the caller a buffer it owns (see Store), so the
// frame is the caller's to keep.
func open(sealed []byte) ([]byte, error) {
	if len(sealed) < frameOverhead {
		return nil, fmt.Errorf("%w: frame truncated to %d bytes", ErrCorrupt, len(sealed))
	}
	if string(sealed[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	p := len(codecMagic)
	if v := binary.LittleEndian.Uint32(sealed[p:]); v != codecSchema {
		return nil, fmt.Errorf("%w: unsupported codec schema %d", ErrCorrupt, v)
	}
	p += 4
	n := binary.LittleEndian.Uint64(sealed[p:])
	if n > maxPayload || int(n) != len(sealed)-frameOverhead {
		return nil, fmt.Errorf("%w: payload length %d does not match frame size %d", ErrCorrupt, n, len(sealed))
	}
	p += 8
	body := sealed[:p+int(n)]
	sum := binary.LittleEndian.Uint32(sealed[p+int(n):])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return sealed[p : p+int(n) : p+int(n)], nil
}

// checked layers the codec over an inner store.
type checked struct {
	inner Store
}

// Checked wraps a store so that every Save seals its payload and every
// Load verifies the frame, returning ErrCorrupt on damage. Spec places
// it above the fault and remote layers, which tear sealed bytes.
func Checked(inner Store) Store {
	return checked{inner: inner}
}

func (c checked) Save(run string, seq uint64, payload []byte) error {
	return c.inner.Save(run, seq, seal(payload))
}

func (c checked) Load(run string, seq uint64) ([]byte, error) {
	sealed, err := c.inner.Load(run, seq)
	if err != nil {
		return nil, err
	}
	return open(sealed)
}

func (c checked) List(run string) ([]uint64, error) { return c.inner.List(run) }

// Unwrap exposes the inner store for capability discovery.
func (c checked) Unwrap() Store { return c.inner }

func (c checked) Delete(run string, seq uint64) error { return c.inner.Delete(run, seq) }
