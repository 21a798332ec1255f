package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/store"
)

const downtime = 1.0

// runInputs are the inputs the execute and recover workloads share: a
// chain, its plan, the store stack's parameters, and the uninterrupted
// reference run on that stack.
type runInputs struct {
	chain   *dag.Graph
	model   expectation.Model
	cp      *core.ChainProblem
	w       *exec.Workload
	srcSeed uint64
	spec    stackSpec // without mems and ledger, which are per run
	bare    float64   // makespan of the store-less run
	refHash uint64
	refLen  int
	killAt  int // the execute workload's crash point, in journal events
}

func newRunInputs(cfg config, seed uint64) (*runInputs, error) {
	s := rng.New(seed)
	in := &runInputs{srcSeed: s.Keyed(2).Uint64()}
	var err error
	if in.chain, err = dag.Chain(cfg.ExecN, dag.DefaultWeights(), s.Keyed(1)); err != nil {
		return nil, err
	}
	if in.model, err = expectation.NewModel(cfg.ExecLambda, downtime); err != nil {
		return nil, err
	}
	if in.cp, in.w, err = in.plan(); err != nil {
		return nil, err
	}
	bare, err := exec.Execute(in.w, in.source(), exec.Options{Downtime: downtime})
	if err != nil {
		return nil, fmt.Errorf("store-less reference run: %w", err)
	}
	in.bare = bare.Makespan
	in.spec = stackSpec{
		net: netsim.Config{
			Seed: s.Keyed(3).Uint64(), Latency: 0.2, Jitter: 0.3,
			Partitions: []netsim.Window{{Start: 0.3 * in.bare, End: 0.4 * in.bare, Isolated: []string{"s0"}}},
		},
		writeFail:    0.02,
		faultLatency: 0.05,
		faultSeed:    s.Keyed(4).Uint64(),
		// Long enough that a renewal always lands before expiry, short
		// enough that the run renews several times.
		leaseTTL: in.bare / 8,
	}
	mems := newMems()
	ref, err := in.runOn(mems, 0)
	if err != nil {
		return nil, fmt.Errorf("uninterrupted reference run: %w", err)
	}
	in.refHash, in.refLen = ref.Journal.Hash(), len(ref.Journal)
	if in.killAt, err = killPoint(ref.Journal, mems); err != nil {
		return nil, err
	}
	return in, nil
}

// killPoint returns the crash point of the execute workload: the event
// right after the save of the first checkpoint past the journal midpoint
// that every replica holds, so the resume has no replica to read-repair
// (see faultyReplica).
func killPoint(j exec.Journal, mems []*store.MemStore) (int, error) {
	var seq uint64
	for i := len(j) / 2; i < len(j); i++ {
		switch j[i].Kind {
		case exec.EvCheckpoint:
			seq = j[i].Seq
		case exec.EvSaveResult:
			held := seq > 0
			for _, m := range mems {
				if _, err := m.Load(runID, seq); err != nil {
					held = false
				}
			}
			if held {
				return i + 2, nil
			}
		}
	}
	return 0, errors.New("no checkpoint past the journal midpoint is held by every replica")
}

// plan builds the chain problem and its optimal workload.
func (in *runInputs) plan() (*core.ChainProblem, *exec.Workload, error) {
	cp, _, err := core.NewChainProblem(in.chain, in.model, 0)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.SolveChainDP(cp)
	if err != nil {
		return nil, nil, err
	}
	w, err := exec.NewChainWorkload(cp, res.CheckpointAfter)
	return cp, w, err
}

func (in *runInputs) source() exec.Source {
	return exec.NewKeyedSource(failure.Exponential{Lambda: in.model.Lambda}, in.srcSeed, 1)
}

func (in *runInputs) options(st store.Store, cp *core.ChainProblem, crashEvents int) exec.Options {
	return exec.Options{
		RunID: runID, Store: st, Downtime: downtime, CrashAfterEvents: crashEvents,
		Adaptive: &exec.AdaptiveOptions{
			Retry:       exec.ExpBackoff{Base: 0.25, Cap: 0.5, MaxAttempts: 4},
			Replanner:   exec.ChainReplanner{CP: cp},
			ReplanRatio: 1.4,
			DownAfter:   2,
			ProbeEvery:  2,
		},
	}
}

// runOn executes the setup plan on a fresh, untraced stack instance
// over mems, stopping after crashEvents journal events when positive.
func (in *runInputs) runOn(mems []*store.MemStore, crashEvents int) (*exec.Result, error) {
	spec := in.spec
	spec.mems, spec.ledger = mems, unlimitedQuota()
	st, err := buildStack(spec, nil)
	if err != nil {
		return nil, err
	}
	return exec.Execute(in.w, in.source(), in.options(st.top, in.cp, crashEvents))
}

// executeBench is ROADMAP's end-to-end cycle: plan, execute on the full
// store stack, kill at the journal midpoint, resume through a fresh
// stack instance over the same replicas, complete.
type executeBench struct {
	in *runInputs
}

func setupExecute(cfg config, seed uint64) (workload, error) {
	in, err := newRunInputs(cfg, seed)
	if err != nil {
		return nil, err
	}
	return &executeBench{in: in}, nil
}

func (b *executeBench) op(tr *tracer) (sample, string, error) {
	in := b.in
	m := sample{}
	spec := in.spec
	spec.mems, spec.ledger = newMems(), unlimitedQuota()

	start := time.Now()
	cp, w, err := in.plan()
	if err != nil {
		return nil, "", err
	}
	first, err := buildStack(spec, tr)
	if err != nil {
		return nil, "", err
	}
	killed, err := exec.Execute(w, in.source(), in.options(first.top, cp, in.killAt))
	if !errors.Is(err, exec.ErrCrashed) {
		return nil, "", fmt.Errorf("execute: first invocation = %v, want the injected crash", err)
	}
	second, err := buildStack(spec, tr)
	if err != nil {
		return nil, "", err
	}
	res, err := exec.Execute(w, in.source(), in.options(second.top, cp, 0))
	if err != nil {
		return nil, "", fmt.Errorf("execute: resumed invocation: %w", err)
	}
	runS := time.Since(start).Seconds()

	n := float64(w.Len())
	m["run_s"] = runS
	m["op_s"] = runS
	first.counters(m)
	second.counters(m)
	m["exec.events_per_task"] = float64(len(res.Journal)) / n
	m["exec.store_overhead_vt"] = res.StoreOverhead
	m["exec.restored_events"] = float64(res.RestoredEvents)
	if tr != nil {
		start = time.Now()
		if _, err := exec.Execute(w, in.source(), exec.Options{Downtime: downtime}); err != nil {
			return m, "", fmt.Errorf("execute: store-less run: %w", err)
		}
		m["exec.bare_run_s"] = time.Since(start).Seconds()
	}

	// Output checks, untimed.
	stored, err := storedBytes(spec.mems)
	if err != nil {
		return m, "", err
	}
	m["stored_bytes_per_task"] = float64(stored) / n
	sig := fmt.Sprintf("killed %s resumed %s stored %d", execSig(killed), execSig(res), stored)
	if !res.Resumed {
		return m, sig, errors.New("execute: second invocation did not resume from a checkpoint")
	}
	if h := res.Journal.Hash(); h != in.refHash || len(res.Journal) != in.refLen {
		return m, sig, fmt.Errorf("execute: resumed journal %016x (%d events), uninterrupted reference %016x (%d events)",
			h, len(res.Journal), in.refHash, in.refLen)
	}
	return m, sig, nil
}

// execSig identifies an execution's journal and Result counters.
func execSig(r *exec.Result) string {
	return fmt.Sprintf("%016x/%d ckpt=%d saves=%d fail=%d resumed=%v@%d/%d replans=%d giveups=%d level=%d epoch=%d overhead=%x makespan=%x",
		r.Journal.Hash(), len(r.Journal), r.Checkpoints, r.Saves, r.Failures, r.Resumed, r.ResumeSeq, r.RestoredEvents,
		r.Replans, r.GiveUps, r.Level, r.Epoch, math.Float64bits(r.StoreOverhead), math.Float64bits(r.Makespan))
}
