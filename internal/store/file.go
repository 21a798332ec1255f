package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fsx"
)

// FileStore is the crash-durable Store: one directory per run, one file
// per checkpoint, every write through fsx.AtomicWriteFile (temp, fsync,
// rename, directory fsync). After Save returns, the checkpoint survives
// a host crash; a crash *during* Save leaves either the previous
// checkpoint content or an orphaned temp file the codec layer never
// mistakes for a checkpoint.
type FileStore struct {
	root string
}

// ckptExt names checkpoint files: ckpt-<seq 20 digits>.bin, zero-padded
// so lexical order is numeric order.
const ckptExt = ".bin"

// NewFileStore returns a file store rooted at dir, creating it if
// needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{root: dir}, nil
}

func (f *FileStore) path(run string, seq uint64) string {
	return filepath.Join(f.root, run, fmt.Sprintf("ckpt-%020d%s", seq, ckptExt))
}

// Save durably persists payload as (run, seq).
func (f *FileStore) Save(run string, seq uint64, payload []byte) error {
	if err := validRun(run); err != nil {
		return err
	}
	dir := filepath.Join(f.root, run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return fsx.AtomicWriteFile(f.path(run, seq), payload)
}

// Load reads checkpoint (run, seq).
func (f *FileStore) Load(run string, seq uint64) ([]byte, error) {
	if err := validRun(run); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(f.path(run, seq))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	return data, err
}

// List returns run's persisted sequence numbers, ascending. Temp files
// and anything else that does not parse as a checkpoint name are
// ignored — they are in-flight writes or debris, not checkpoints.
func (f *FileStore) List(run string) ([]uint64, error) {
	if err := validRun(run); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(f.root, run))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		seq, err := strconv.ParseUint(name[len("ckpt-"):len(name)-len(ckptExt)], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Delete removes checkpoint (run, seq) and makes the removal durable.
func (f *FileStore) Delete(run string, seq uint64) error {
	if err := validRun(run); err != nil {
		return err
	}
	err := os.Remove(f.path(run, seq))
	if errors.Is(err, fs.ErrNotExist) {
		return ErrNotFound
	}
	if err != nil {
		return err
	}
	return fsx.SyncDir(filepath.Join(f.root, run))
}

var _ Store = (*FileStore)(nil)
