package store

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrUnrepairable reports a scrub that found corrupt replicas it could
// not repair: fewer than R replicas hold a clean copy, so no read
// quorum vouches for any candidate payload and overwriting would risk
// blessing a wrong one. This is a loud, typed failure — the operator
// must restore the key from elsewhere (or accept the data loss), and
// silent continuation would let rot spread to the repair source itself.
var ErrUnrepairable = errors.New("store: corrupt replicas without a clean quorum to repair from")

// SyncReport summarizes one anti-entropy pass over a run.
type SyncReport struct {
	// Seqs is the number of distinct sequence numbers the pass visited
	// (the union of every reachable replica's listing).
	Seqs int
	// Copied counts replica copies written by this pass: (seq, replica)
	// pairs that were missing, corrupt, or byte-divergent and now hold
	// the quorum payload — whether the canonical read's repair or the
	// explicit copy sweep wrote them.
	Copied int
	// InSync counts (seq, replica) pairs verified to hold the quorum
	// payload bit-for-bit by the end of the pass.
	InSync int
	// LoadFailures counts seqs skipped because no quorum read could
	// establish a canonical payload (e.g. mid-partition).
	LoadFailures int
	// CopyFailures counts replica copies that failed (unreachable
	// replica); the pair stays divergent until the next pass.
	CopyFailures int
	// Unlisted counts replicas whose List failed — their missing seqs
	// cannot be discovered this pass.
	Unlisted int
}

// Converged reports whether the pass proved every replica it could see
// holds every seq bit-for-bit: nothing failed and nothing was left out.
func (r SyncReport) Converged() bool {
	return r.LoadFailures == 0 && r.CopyFailures == 0 && r.Unlisted == 0
}

// ScrubReport summarizes one scrub-and-repair pass over a run.
type ScrubReport struct {
	// Seqs is the number of distinct sequence numbers walked.
	Seqs int
	// Checked counts (seq, replica) load probes performed.
	Checked int
	// Corrupt counts replicas whose copy failed the Checked codec's
	// integrity check (ErrCorrupt).
	Corrupt int
	// Repaired counts corrupt replicas overwritten from a clean quorum.
	Repaired int
	// Unrepairable counts seqs with corrupt replicas but fewer than R
	// clean copies — no quorum vouches for a repair source.
	Unrepairable int
	// CopyFailures counts repair writes that failed.
	CopyFailures int
}

// RunSyncer is the anti-entropy capability: stores that can converge a
// run's replicas without read traffic implement it.
type RunSyncer interface {
	SyncRun(run string) (SyncReport, error)
}

// RunScrubber is the scrub-and-repair capability.
type RunScrubber interface {
	ScrubRun(run string) (ScrubReport, error)
}

// FindSyncer walks the decorator stack for a RunSyncer.
func FindSyncer(s Store) (RunSyncer, bool) { return find[RunSyncer](s) }

// FindScrubber walks the decorator stack for a RunScrubber.
func FindScrubber(s Store) (RunScrubber, bool) { return find[RunScrubber](s) }

// listed counts the replicas whose listing succeeded.
func listed(errs []error) int {
	n := 0
	for _, err := range errs {
		if err == nil {
			n++
		}
	}
	return n
}

// SyncRun runs one deterministic anti-entropy pass over run: list every
// replica, take the union of sequence numbers, establish the canonical
// payload for each via a quorum Load, and copy it to every reachable
// replica that is missing, corrupt, or byte-divergent. Sequences are
// visited in ascending order and replicas in ascending index, so the
// pass is bit-reproducible; it never advances the virtual clock beyond
// what its own store operations charge and draws no randomness of its
// own, which keeps executor-driven passes invisible to the journal.
//
// After a partition heals, repeated passes converge all N replicas to
// bit-identical contents without depending on read traffic — this is
// the background half of repair, complementing the read path's quorum
// repair. The returned error (nil when the pass fully converged) wraps
// a representative cause; the report is always meaningful.
func (q *QuorumStore) SyncRun(run string) (SyncReport, error) {
	if err := validRun(run); err != nil {
		return SyncReport{}, err
	}
	n := len(q.replicas)
	qr := q.run(run)
	seqs, _, listErrs := q.listAll(qr, run)
	okLists := listed(listErrs)
	rep := SyncReport{Unlisted: n - okLists}
	if okLists < q.r {
		// Too few listings to even trust the seq union: bail with the
		// usual quorum error shape so retry classification works.
		q.count(QuorumStats{QuorumFailures: 1})
		return rep, quorumErr("sync", run, 0, okLists, q.r, listErrs)
	}
	rep.Seqs = len(seqs)

	var firstErr error
	for _, sq := range seqs {
		// The quorum load both establishes the canonical payload and
		// read-repairs the negatives it contacts; those repairs are this
		// pass's work, so they count toward Copied.
		canonical, repaired, err := q.load(qr, run, sq)
		rep.Copied += int(repaired)
		if err != nil {
			rep.LoadFailures++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for i := 0; i < n; i++ {
			if listErrs[i] != nil {
				// The replica could not even list; its copy state is
				// unknown and a write would likely fail the same way.
				continue
			}
			var cur []byte
			_, lerr := q.replicaOp(qr, i, func(s Store) error {
				var ierr error
				cur, ierr = s.Load(run, sq)
				return ierr
			})
			if lerr == nil && bytes.Equal(cur, canonical) {
				rep.InSync++
				continue
			}
			if _, werr := q.replicaOp(qr, i, func(s Store) error { return s.Save(run, sq, canonical) }); werr != nil {
				rep.CopyFailures++
				if firstErr == nil {
					firstErr = werr
				}
				continue
			}
			rep.Copied++
			q.count(QuorumStats{Repairs: 1})
		}
	}
	if rep.Converged() {
		return rep, nil
	}
	if firstErr == nil && rep.Unlisted > 0 {
		firstErr = fmt.Errorf("%d replicas unreachable for listing", rep.Unlisted)
	}
	return rep, fmt.Errorf("store: sync %s: %d/%d seqs unresolved, %d copies failed, %d replicas unlisted: %w",
		run, rep.LoadFailures, rep.Seqs, rep.CopyFailures, rep.Unlisted, firstErr)
}

// ScrubRun walks every (run, seq) key, probes each replica's copy, and
// repairs the ones the Checked codec rejects (ErrCorrupt) by
// overwriting them with the payload a clean quorum agrees on. The
// repair source is the most common clean payload, requiring at least R
// clean replicas — a read quorum's worth of agreement — so a scrub can
// repair up to N−R corrupt copies of one key (with W+R > N this bounds
// the classic N−W stragglers plus any rot on top). Fewer clean copies
// than R is a typed loud failure (ErrUnrepairable): no quorum vouches
// for any candidate, and guessing could overwrite the only good bytes.
//
// Like SyncRun the walk is deterministic: ascending seq, ascending
// replica index, no goroutines, no wall clock.
func (q *QuorumStore) ScrubRun(run string) (ScrubReport, error) {
	if err := validRun(run); err != nil {
		return ScrubReport{}, err
	}
	n := len(q.replicas)
	qr := q.run(run)
	seqs, _, listErrs := q.listAll(qr, run)
	var rep ScrubReport
	if okLists := listed(listErrs); okLists < q.r {
		q.count(QuorumStats{QuorumFailures: 1})
		return rep, quorumErr("scrub", run, 0, okLists, q.r, listErrs)
	}
	rep.Seqs = len(seqs)

	var firstErr error
	for _, sq := range seqs {
		var clean []reply
		var corrupt []int
		for i := 0; i < n; i++ {
			var payload []byte
			_, err := q.replicaOp(qr, i, func(s Store) error {
				var ierr error
				payload, ierr = s.Load(run, sq)
				return ierr
			})
			rep.Checked++
			switch {
			case err == nil:
				clean = append(clean, reply{idx: i, payload: payload})
			case errors.Is(err, ErrCorrupt):
				corrupt = append(corrupt, i)
			}
			// Missing or unreachable copies are SyncRun's department;
			// the scrubber only chases rot.
		}
		if len(corrupt) == 0 {
			continue
		}
		rep.Corrupt += len(corrupt)
		if len(clean) < q.r {
			rep.Unrepairable++
			if firstErr == nil {
				firstErr = fmt.Errorf("store: scrub %s/%d: %d corrupt replicas, only %d clean (need %d): %w",
					run, sq, len(corrupt), len(clean), q.r, ErrUnrepairable)
			}
			continue
		}
		winner := scrubWinner(clean)
		for _, i := range corrupt {
			if _, werr := q.replicaOp(qr, i, func(s Store) error { return s.Save(run, sq, winner) }); werr != nil {
				rep.CopyFailures++
				if firstErr == nil {
					firstErr = werr
				}
				continue
			}
			rep.Repaired++
			q.count(QuorumStats{Repairs: 1})
		}
	}
	if rep.Unrepairable == 0 && rep.CopyFailures == 0 {
		return rep, nil
	}
	return rep, fmt.Errorf("store: scrub %s: %d/%d seqs unrepairable, %d repair writes failed: %w",
		run, rep.Unrepairable, rep.Seqs, rep.CopyFailures, firstErr)
}

// scrubWinner picks the repair source among clean replies: the most
// common payload byte-string, ties broken toward the one whose lowest
// holding replica index is smallest, so the choice is deterministic.
func scrubWinner(clean []reply) []byte {
	counts := make(map[string]int, len(clean))
	lowest := make(map[string]int, len(clean))
	for _, rp := range clean {
		key := string(rp.payload)
		counts[key]++
		if cur, ok := lowest[key]; !ok || rp.idx < cur {
			lowest[key] = rp.idx
		}
	}
	// Map iteration order is random, but the (count desc, lowest-index
	// asc) order is strict — lowest indices are unique per key — so the
	// winner is iteration-order independent.
	best, have := "", false
	for key := range counts {
		if !have || counts[key] > counts[best] || (counts[key] == counts[best] && lowest[key] < lowest[best]) {
			best, have = key, true
		}
	}
	return []byte(best)
}

var (
	_ RunSyncer   = (*QuorumStore)(nil)
	_ RunScrubber = (*QuorumStore)(nil)
)
