package expt

import (
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/expt/result"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/store"
)

func init() {
	register(Info{
		ID:    "E21",
		Title: "Multi-writer safety: epoch-fenced leases, executor-driven anti-entropy, scrub-and-repair of corrupt replicas",
		Claim: "(1) under contention, epoch-fenced leases admit exactly one writer: executor a killed at ANY event point and taken over by executor b leaves a zombie whose first write is fenced with a typed fatal error (or that has no writes left), and the survivor's journal is bit-identical to an uncontended run's — the lease protocol is invisible to the journal; (2) executor-driven anti-entropy passes converge every replica of a 3-way quorum bit-identically by completion despite partition windows that leave one replica behind, without perturbing the journal; (3) a scrub pass repairs CRC-corrupt replicas from any clean read-quorum and fails with a typed error exactly when no clean quorum remains",
	}, planE21)
}

// e21Spec declares the run every E21 drill executes: E20's 3-replica
// quorum over the given network under the retry policy E20 proved
// replay-exact there, so every journal-identity claim here isolates the
// new machinery (leases, sync passes), not the executor.
func e21Spec(netCfg netsim.Config, srcSeed uint64) exec.RunSpec {
	return exec.RunSpec{
		RunID: "e21", Seed: srcSeed, Salt: 1,
		Store:       &exec.StoreLayout{Replicas: 3, Net: &netCfg, Timeout: e20Timeout},
		RetryPolicy: exec.ExpBackoff{Base: 0.25, Cap: 0.5, MaxAttempts: 4},
	}
}

// e21Converged reports whether every replica holds bit-identical
// contents for the data run: same seq lists, same raw frames.
func e21Converged(mems []store.Store) (bool, error) {
	refSeqs, err := mems[0].List("e21")
	if err != nil {
		return false, err
	}
	for _, m := range mems[1:] {
		seqs, err := m.List("e21")
		if err != nil {
			return false, err
		}
		if fmt.Sprint(seqs) != fmt.Sprint(refSeqs) {
			return false, nil
		}
	}
	for _, seq := range refSeqs {
		want, err := mems[0].Load("e21", seq)
		if err != nil {
			return false, err
		}
		for _, m := range mems[1:] {
			got, err := m.Load("e21", seq)
			if err != nil || string(got) != string(want) {
				return false, err
			}
		}
	}
	return true, nil
}

func planE21(cfg Config) (*Plan, error) {
	cp, err := e20Problem()
	if err != nil {
		return nil, err
	}
	plan, err := e20Plan(cp)
	if err != nil {
		return nil, err
	}

	p := &Plan{}

	// Table 1: the contended fencing drill at every kill point. Executor
	// a (epoch 1) is killed at event point k, executor b (epoch 2) takes
	// the lease over and is itself killed after one save, the zombie a
	// re-enters on its ORIGINAL lease instance and must be fenced on its
	// first write (or complete write-free when nothing remains), and the
	// survivor (epoch 3) finishes with the uncontended journal. Full
	// budget kills at EVERY event point; quick strides through them.
	drill := p.AddTable(&result.Table{
		ID:    "E21",
		Title: "contended fencing drill: executor a killed at every event point, b takes over, zombie fenced, survivor journal vs uncontended reference",
		Columns: []string{
			"kill_points", "journal_events", "zombies_fenced", "zombies_write_free", "polite_b_blocked", "epochs_monotone", "journal_identical",
		},
	})
	type drillOut struct{ ok bool }
	killStride := 1
	if cfg.Quick {
		killStride = 7
	}
	p.Job(drill, func(s *rng.Stream) (RowOut, error) {
		srcSeed := s.Uint64()
		netSeed := s.Uint64()
		netCfg := netsim.Config{Seed: netSeed, Latency: 0.2, Jitter: 0.3, Loss: 0.05}
		leased := func(holder string) exec.RunSpec {
			spec := e21Spec(netCfg, srcSeed)
			spec.Store.Lease = &store.LeaseConfig{Holder: holder, TTL: 1e9}
			return spec
		}

		// Uncontended leased reference, plus a lease-free control proving
		// the lease protocol never reaches the journal.
		ref, err := leased("ref").Run(plan)
		if err != nil {
			return RowOut{}, err
		}
		if ref.Epoch != 1 {
			return RowOut{}, fmt.Errorf("E21: reference epoch = %d, want 1", ref.Epoch)
		}
		bare, err := e21Spec(netCfg, srcSeed).Run(plan)
		if err != nil {
			return RowOut{}, err
		}
		if !bare.Journal.Equal(ref.Journal) {
			return RowOut{}, fmt.Errorf("E21: leased journal differs from lease-free journal")
		}

		ne := len(ref.Journal)
		kills, fenced, writeFree := 0, 0, 0
		politeBlocked, epochsOK, identical := false, true, true
		for kill := 1; kill <= ne; kill += killStride {
			kills++
			spec := leased("")
			spec.CrashAfterEvents = kill
			rep, err := exec.FencingDrill(plan, spec, ref.Journal, kill == 1)
			if err != nil {
				return RowOut{}, fmt.Errorf("E21: kill@%d: %w", kill, err)
			}
			epochsOK = epochsOK && rep.A.Epoch == 1 && rep.B.Epoch == 2 && rep.Survivor.Epoch == 3
			if kill == 1 {
				// A polite b (no takeover) is blocked while a's lease lives.
				politeBlocked = errors.Is(rep.PoliteErr, store.ErrLeaseHeld)
			}
			if rep.Zombie != nil {
				fenced++
			} else {
				writeFree++
			}
			identical = identical && rep.Identical
		}
		ok := politeBlocked && epochsOK && identical && fenced > 0
		return RowOut{
			Cells: []result.Cell{
				result.Int(kills),
				result.Int(ne),
				result.Int(fenced),
				result.Int(writeFree),
				result.Bool(politeBlocked),
				result.Bool(epochsOK),
				result.Bool(identical),
			},
			Value: drillOut{ok: ok},
		}, nil
	})

	// Table 2: executor-driven anti-entropy. A partition window leaves
	// replica s0 behind for part of the run; with SyncEvery the executor
	// converges all three replicas bit-identically by completion, the
	// control arm without sync does not, and the journal is identical in
	// both arms — sync traffic is invisible to replay.
	sync := p.AddTable(&result.Table{
		ID:    "E21",
		Title: "executor-driven anti-entropy under partition windows isolating replica s0 (quorum N=3, W=2, sync every 3rd commit + final)",
		Columns: []string{
			"window_end", "syncs", "sync_copied", "converged", "control_converged", "journal_identical",
		},
	})
	type syncOut struct{ ok bool }
	for _, windowEnd := range []float64{0.45, 0.7, 0.9} {
		windowEnd := windowEnd
		p.Job(sync, func(s *rng.Stream) (RowOut, error) {
			srcSeed := s.Uint64()
			netSeed := s.Uint64()
			base, err := exec.RunSpec{Seed: srcSeed, Salt: 1}.Run(plan)
			if err != nil {
				return RowOut{}, err
			}
			netCfg := e20NetCfg(netSeed, 0.1*base.Makespan, windowEnd*base.Makespan)
			arm := func(syncEvery int) (*exec.Result, []store.Store, error) {
				spec := e21Spec(netCfg, srcSeed)
				spec.SyncEvery = syncEvery
				b, st, err := spec.Boot()
				if err != nil {
					return nil, nil, err
				}
				res, err := spec.Execute(plan, st)
				return res, b.Replicas, err
			}
			res, mems, err := arm(3)
			if err != nil {
				return RowOut{}, err
			}
			converged, err := e21Converged(mems)
			if err != nil {
				return RowOut{}, err
			}
			control, controlMems, err := arm(0)
			if err != nil {
				return RowOut{}, err
			}
			controlConverged, err := e21Converged(controlMems)
			if err != nil {
				return RowOut{}, err
			}
			identical := res.Journal.Equal(control.Journal)
			ok := converged && !controlConverged && identical && res.Syncs > 0
			return RowOut{
				Cells: []result.Cell{
					result.Float(windowEnd),
					result.Int(res.Syncs),
					result.Int(res.SyncCopied),
					result.Bool(converged),
					result.Bool(controlConverged),
					result.Bool(identical),
				},
				Value: syncOut{ok: ok},
			}, nil
		})
	}

	// Table 3: scrub-and-repair. After a clean quorum run, k replicas'
	// copies of the first checkpoint are torn (the CRC frame no longer
	// decodes). With R=2 clean copies required, k ≤ 1 = N−R is repaired
	// from the clean quorum; k = 2 leaves no clean quorum and the scrub
	// fails with the typed ErrUnrepairable while the clean survivor is
	// left untouched.
	scrub := p.AddTable(&result.Table{
		ID:    "E21",
		Title: "scrub-and-repair over 3 CRC-framed replicas (repair quorum R=2): torn copies vs repair bound N−R=1",
		Columns: []string{
			"corrupt_replicas", "seqs", "copies_checked", "corrupt", "repaired", "unrepairable", "typed_error", "replicas_identical_after",
		},
	})
	type scrubOut struct{ ok bool }
	for _, corrupt := range []int{0, 1, 2} {
		corrupt := corrupt
		p.Job(scrub, func(s *rng.Stream) (RowOut, error) {
			spec := exec.RunSpec{RunID: "e21", Seed: s.Uint64(), Salt: 1, Store: &exec.StoreLayout{Replicas: 3}}
			b, q, err := spec.Boot()
			if err != nil {
				return RowOut{}, err
			}
			if _, err := spec.Execute(plan, q); err != nil {
				return RowOut{}, err
			}
			mems := b.Replicas
			seqs, err := mems[0].List("e21")
			if err != nil || len(seqs) == 0 {
				return RowOut{}, fmt.Errorf("E21: no checkpoints to scrub (%v)", err)
			}
			for i := 0; i < corrupt; i++ {
				raw, err := mems[i].Load("e21", seqs[0])
				if err != nil {
					return RowOut{}, err
				}
				if err := mems[i].Save("e21", seqs[0], raw[:len(raw)-3]); err != nil {
					return RowOut{}, err
				}
			}
			scrubber, _ := store.FindScrubber(q.Store)
			rep, err := scrubber.ScrubRun("e21")
			typed := errors.Is(err, store.ErrUnrepairable)
			if corrupt <= 1 && err != nil {
				return RowOut{}, fmt.Errorf("E21: scrub with %d corrupt = %v, want repair", corrupt, err)
			}
			identical, cerr := e21Converged(mems)
			if cerr != nil && corrupt < 2 {
				return RowOut{}, cerr
			}
			var ok bool
			switch corrupt {
			case 0:
				ok = rep.Corrupt == 0 && rep.Repaired == 0 && identical
			case 1:
				ok = rep.Corrupt == 1 && rep.Repaired == 1 && identical
			case 2:
				ok = typed && rep.Unrepairable >= 1
			}
			return RowOut{
				Cells: []result.Cell{
					result.Int(corrupt),
					result.Int(rep.Seqs),
					result.Int(rep.Checked),
					result.Int(rep.Corrupt),
					result.Int(rep.Repaired),
					result.Int(rep.Unrepairable),
					result.Bool(typed),
					result.Bool(identical),
				},
				Value: scrubOut{ok: ok},
			}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		allDrill, allSync, allScrub := true, true, true
		for _, out := range outs {
			switch v := out.Value.(type) {
			case drillOut:
				allDrill = allDrill && v.ok
			case syncOut:
				allSync = allSync && v.ok
			case scrubOut:
				allScrub = allScrub && v.ok
			}
		}
		tables[drill].AddNote("acceptance: at every kill point the zombie was fenced (or had no writes left), epochs stayed monotone, a polite second writer was held off, and the survivor's journal matched the uncontended reference bit-for-bit → %s", yn(allDrill))
		tables[sync].AddNote("acceptance: anti-entropy converged all replicas bit-identically after every partition schedule, the no-sync control did not converge, and the journal was identical in both arms → %s", yn(allSync))
		tables[scrub].AddNote("acceptance: scrub repaired up to N−R corrupt replicas from the clean quorum and failed with the typed ErrUnrepairable beyond the bound → %s", yn(allScrub))
		return nil
	}
	return p, nil
}
