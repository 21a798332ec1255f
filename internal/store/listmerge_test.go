package store

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// listStub is a replica whose List returns a fixed listing or error
// and records the order in which replicas were asked.
type listStub struct {
	Store
	id    int
	seqs  []uint64
	err   error
	calls *[]int
}

func (s listStub) List(string) ([]uint64, error) {
	*s.calls = append(*s.calls, s.id)
	return slices.Clone(s.seqs), s.err
}

// mapUnion is the merge the quorum's listings used before the sorted
// merge: a seen-set over every successful listing, then a sort.
func mapUnion(listings [][]uint64, errs []error) []uint64 {
	seen := make(map[uint64]bool)
	for i, l := range listings {
		if errs[i] != nil {
			continue
		}
		for _, sq := range l {
			seen[sq] = true
		}
	}
	out := make([]uint64, 0, len(seen))
	for sq := range seen {
		out = append(out, sq)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestListMergeMatchesMapOracle drives the quorum's one listing pass
// over random ascending listings — duplicates within and across
// replicas, empty listings, failed replicas — and checks the union
// against the map+sort oracle, and that every replica is listed once,
// in index order, whatever the outcome.
func TestListMergeMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.IntN(5)
		var calls []int
		reps := make([]Store, n)
		listings := make([][]uint64, n)
		errs := make([]error, n)
		for i := range reps {
			for k := r.IntN(7); k > 0; k-- {
				listings[i] = append(listings[i], uint64(r.IntN(12)))
			}
			slices.Sort(listings[i])
			if r.IntN(4) == 0 {
				errs[i] = ErrInjected
			}
			reps[i] = listStub{id: i, seqs: listings[i], err: errs[i], calls: &calls}
		}
		q, err := NewQuorumStore(reps, QuorumConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := mapUnion(listings, errs)
		got, _, gotErrs := q.listAll("run")
		if !slices.Equal(got, want) || got == nil {
			t.Fatalf("trial %d: listings %v errs %v: merged %v, want %v", trial, listings, errs, got, want)
		}
		if !slices.Equal(gotErrs, errs) {
			t.Fatalf("trial %d: errors %v, want %v", trial, gotErrs, errs)
		}
		ok := listed(errs)
		calls = calls[:0]
		seqs, err := q.List("run")
		if wantIdx := seqRange(n); !slices.Equal(calls, wantIdx) {
			t.Fatalf("trial %d: List asked replicas %v, want %v", trial, calls, wantIdx)
		}
		switch {
		case ok < q.r && !errors.Is(err, ErrQuorum):
			t.Fatalf("trial %d: %d of %d listed: List = %v, want ErrQuorum", trial, ok, q.r, err)
		case ok >= q.r && (err != nil || !slices.Equal(seqs, want)):
			t.Fatalf("trial %d: List = %v, %v; want %v", trial, seqs, err, want)
		}
	}
}

func seqRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
