package store

import (
	"slices"
	"sync"
)

// MemStore is the in-memory Store: a mutex-guarded map. It is the
// default for campaigns (thousands of runs whose checkpoints exist only
// to exercise the executor's rollback path) and for tests that want
// store semantics without disk.
type MemStore struct {
	mu   sync.RWMutex
	runs map[string]*memRun
}

// memRun is one run's checkpoints and their seqs in ascending order,
// which Save and Delete maintain so List is a copy.
type memRun struct {
	payloads map[uint64][]byte
	seqs     []uint64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{runs: make(map[string]*memRun)}
}

// Save stores a copy of payload under (run, seq).
func (m *MemStore) Save(run string, seq uint64, payload []byte) error {
	if err := validRun(run); err != nil {
		return err
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[run]
	if r == nil {
		r = &memRun{payloads: make(map[uint64][]byte)}
		m.runs[run] = r
	}
	if _, ok := r.payloads[seq]; !ok {
		i, _ := slices.BinarySearch(r.seqs, seq)
		r.seqs = slices.Insert(r.seqs, i, seq)
	}
	r.payloads[seq] = cp
	return nil
}

// Load returns a copy of checkpoint (run, seq).
func (m *MemStore) Load(run string, seq uint64) ([]byte, error) {
	if err := validRun(run); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	r := m.runs[run]
	if r == nil {
		return nil, ErrNotFound
	}
	payload, ok := r.payloads[seq]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

// List returns run's sequence numbers, ascending.
func (m *MemStore) List(run string) ([]uint64, error) {
	if err := validRun(run); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var seqs []uint64
	if r := m.runs[run]; r != nil {
		seqs = r.seqs
	}
	return append(make([]uint64, 0, len(seqs)), seqs...), nil
}

// Delete removes checkpoint (run, seq).
func (m *MemStore) Delete(run string, seq uint64) error {
	if err := validRun(run); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[run]
	if r == nil {
		return ErrNotFound
	}
	if _, ok := r.payloads[seq]; !ok {
		return ErrNotFound
	}
	delete(r.payloads, seq)
	// Close the gap from the nearer end, so deleting the oldest seq (a
	// purge or a retention pass walks them in ascending order) or the
	// newest costs O(1).
	i, _ := slices.BinarySearch(r.seqs, seq)
	if i < len(r.seqs)/2 {
		copy(r.seqs[1:i+1], r.seqs[:i])
		r.seqs = r.seqs[1:]
	} else {
		r.seqs = slices.Delete(r.seqs, i, i+1)
	}
	return nil
}

var _ Store = (*MemStore)(nil)
