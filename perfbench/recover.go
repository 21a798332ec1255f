package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
)

// recoverBench is the read side: scrub, anti-entropy and a restart over
// the replicas a killed run left behind, with planted torn frames.
type recoverBench struct {
	in   *runInputs
	mems []*store.MemStore
	// The damaged state every op starts from: each replica's data-run
	// seqs and lease-run frames, and the torn frames planted on s1.
	seqs   [][]uint64
	lease  []map[uint64][]byte
	torn   map[uint64][]byte
	newest uint64
}

func setupRecover(cfg config, seed uint64) (workload, error) {
	in, err := newRunInputs(cfg, seed)
	if err != nil {
		return nil, err
	}
	b := &recoverBench{in: in, mems: newMems(), torn: map[uint64][]byte{}}
	if _, err := in.runOn(b.mems, in.refLen*9/10); !errors.Is(err, exec.ErrCrashed) {
		return nil, fmt.Errorf("recover: damaging run = %v, want the injected crash", err)
	}
	for _, m := range b.mems {
		seqs, err := m.List(runID)
		if err != nil {
			return nil, err
		}
		b.seqs = append(b.seqs, seqs)
		if len(seqs) > 0 {
			b.newest = max(b.newest, seqs[len(seqs)-1])
		}
	}
	// Tear s1's copy of every 8th seq s0 still holds, where s2 also
	// holds it, so a clean read quorum (s0, s2) remains to repair from.
	for i, seq := range b.seqs[0] {
		if i%8 != 0 || !has(b.seqs[1], seq) || !has(b.seqs[2], seq) {
			continue
		}
		raw, err := b.mems[1].Load(runID, seq)
		if err != nil {
			return nil, err
		}
		frame := raw[:len(raw)-3]
		if err := b.mems[1].Save(runID, seq, frame); err != nil {
			return nil, err
		}
		b.torn[seq] = frame
	}
	if len(b.torn) == 0 {
		return nil, errors.New("recover: no seq to tear")
	}
	lrun := store.LeaseRun(runID)
	for _, m := range b.mems {
		frames := map[uint64][]byte{}
		seqs, err := m.List(lrun)
		if err != nil {
			return nil, err
		}
		for _, seq := range seqs {
			if frames[seq], err = m.Load(lrun, seq); err != nil {
				return nil, err
			}
		}
		b.lease = append(b.lease, frames)
	}
	return b, nil
}

// restore puts the replicas back into the damaged state. An op only
// adds copies, repairs torn frames and rewrites the lease record, so
// undoing exactly that suffices; the final List comparison proves it.
func (b *recoverBench) restore() error {
	lrun := store.LeaseRun(runID)
	for i, m := range b.mems {
		cur, err := m.List(runID)
		if err != nil {
			return err
		}
		for _, seq := range cur {
			if !has(b.seqs[i], seq) {
				if err := m.Delete(runID, seq); err != nil {
					return err
				}
			}
		}
		cur, err = m.List(lrun)
		if err != nil {
			return err
		}
		for _, seq := range cur {
			if _, keep := b.lease[i][seq]; !keep {
				if err := m.Delete(lrun, seq); err != nil {
					return err
				}
			}
		}
		for seq, frame := range b.lease[i] {
			if err := m.Save(lrun, seq, frame); err != nil {
				return err
			}
		}
	}
	for seq, frame := range b.torn {
		if err := b.mems[1].Save(runID, seq, frame); err != nil {
			return err
		}
	}
	for i, m := range b.mems {
		cur, err := m.List(runID)
		if err != nil {
			return err
		}
		if !slices.Equal(cur, b.seqs[i]) {
			return fmt.Errorf("recover: replica s%d not restored to its damaged state", i)
		}
	}
	return nil
}

func (b *recoverBench) op(tr *tracer) (sample, string, error) {
	if err := b.restore(); err != nil {
		return nil, "", err
	}
	// A maintenance process: latency on every hop, but no injected
	// write faults, no loss, no partition and no jitter, so no
	// operation can time out.
	spec := b.in.spec
	spec.mems, spec.ledger = b.mems, unlimitedQuota()
	spec.writeFail = 0
	spec.net.Jitter, spec.net.Partitions = 0, nil
	st, err := buildStack(spec, tr)
	if err != nil {
		return nil, "", err
	}
	scrubber, ok1 := store.FindScrubber(st.top)
	syncer, ok2 := store.FindSyncer(st.top)
	if !ok1 || !ok2 {
		return nil, "", errors.New("recover: stack has no scrubber or syncer")
	}
	m := sample{}

	start := time.Now()
	scrub, scrubErr := scrubber.ScrubRun(runID)
	m["scrub_s"] = time.Since(start).Seconds()
	start = time.Now()
	synced, syncErr := syncer.SyncRun(runID)
	m["sync_s"] = time.Since(start).Seconds()
	identical := replicasIdentical(b.mems)
	// The restored prefix is longer than one event, so a crash point of
	// one event stops the restart at its first new event.
	start = time.Now()
	res, runErr := exec.Execute(b.in.w, b.in.source(), b.in.options(st.top, b.in.cp, 1))
	m["restart_s"] = time.Since(start).Seconds()
	m["op_s"] = m["scrub_s"] + m["sync_s"] + m["restart_s"]
	m["store.quorum.scrub.repaired"] = float64(scrub.Repaired)
	m["store.quorum.sync.copied"] = float64(synced.Copied)
	st.counters(m)
	if res != nil {
		m["exec.restored_events"] = float64(res.RestoredEvents)
	}

	// Output checks.
	switch {
	case scrubErr != nil:
		return m, "", fmt.Errorf("recover: scrub: %w", scrubErr)
	case scrub.Repaired != len(b.torn) || scrub.Unrepairable != 0:
		return m, "", fmt.Errorf("recover: scrub repaired %d of %d torn frames, %d unrepairable", scrub.Repaired, len(b.torn), scrub.Unrepairable)
	case syncErr != nil:
		return m, "", fmt.Errorf("recover: sync: %w", syncErr)
	case identical != nil:
		return m, "", identical
	case !errors.Is(runErr, exec.ErrCrashed):
		return m, "", fmt.Errorf("recover: restart = %v, want the injected crash", runErr)
	case !res.Resumed || res.ResumeSeq != b.newest:
		return m, "", fmt.Errorf("recover: restart resumed=%v from seq %d, want seq %d", res.Resumed, res.ResumeSeq, b.newest)
	case len(res.Journal) != res.RestoredEvents+1:
		return m, "", fmt.Errorf("recover: restart stopped after %d events, want %d", len(res.Journal), res.RestoredEvents+1)
	}
	sig := fmt.Sprintf("scrub %+v sync %+v restart %s", scrub, synced, execSig(res))
	return m, sig, nil
}

// has reports whether the ascending seqs contain seq.
func has(seqs []uint64, seq uint64) bool {
	_, found := slices.BinarySearch(seqs, seq)
	return found
}

// replicasIdentical reports whether every replica holds every data-run
// seq with the same bytes.
func replicasIdentical(mems []*store.MemStore) error {
	want, err := mems[0].List(runID)
	if err != nil {
		return err
	}
	for i, m := range mems[1:] {
		seqs, err := m.List(runID)
		if err != nil {
			return err
		}
		if !slices.Equal(seqs, want) {
			return fmt.Errorf("recover: after sync, replica s%d holds %d seqs, s0 holds %d", i+1, len(seqs), len(want))
		}
	}
	for _, seq := range want {
		ref, err := mems[0].Load(runID, seq)
		if err != nil {
			return err
		}
		for i, m := range mems[1:] {
			got, err := m.Load(runID, seq)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, ref) {
				return fmt.Errorf("recover: after sync, replica s%d differs from s0 at seq %d", i+1, seq)
			}
		}
	}
	return nil
}
