package exec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/store"
)

// countingReplanner counts the Replan calls made through it.
type countingReplanner struct {
	Replanner
	calls int
}

func (c *countingReplanner) Replan(from int, overhead float64) ([]core.Segment, error) {
	c.calls++
	return c.Replanner.Replan(from, overhead)
}

// replanDAG is a layered DAG checkpointed after every task, with its
// live-set order replanner.
func replanDAG(t *testing.T) (*Workload, expectation.Model, Replanner) {
	t.Helper()
	g, err := dag.Layered(8, 8, 0.3, dag.DefaultWeights(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := make([]bool, len(order))
	for i := range ck {
		ck[i] = true
	}
	cm := core.LiveSetCosts{R0: 0.5}
	w, err := NewDAGWorkload(g, core.Plan{Order: order, CheckpointAfter: ck}, cm)
	if err != nil {
		t.Fatal(err)
	}
	return w, m, OrderReplanner{G: g, Order: order, M: m, CM: cm}
}

// TestResumeReplansOnce kills an adaptive run right after the save of
// every commit that replanned and resumes it each time on a fresh
// stack over the same backends. Every resume must rebuild its segment
// layout with at most one Replan call, the journal's last replan,
// however many replans its journal holds, and the run must still end
// on the uninterrupted journal and metrics.
func TestResumeReplansOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		minReplans int
		plan       func(t *testing.T) Plan
		spec       RunSpec
	}{
		{"chain", 8, func(t *testing.T) Plan {
			cp := segmentProblem(t, 96)
			return Plan{Workload: segmentChain(t, 96), Model: cp.Model, Replanner: ChainReplanner{CP: cp}}
		}, RunSpec{
			Store:       &StoreLayout{Faults: &store.FaultPlan{Seed: 3, WriteFail: 0.1, MeanLatency: 0.5}},
			RetryPolicy: ExpBackoff{Base: 0.25, MaxAttempts: 2}, ReplanRatio: 1.1,
		}},
		{"dag", 8, func(t *testing.T) Plan {
			w, m, r := replanDAG(t)
			return Plan{Workload: w, Model: m, Replanner: r}
		}, RunSpec{
			Store:       &StoreLayout{Faults: &store.FaultPlan{Seed: 4, WriteFail: 0.1, MeanLatency: 0.5}},
			RetryPolicy: ExpBackoff{Base: 0.25, MaxAttempts: 2}, ReplanRatio: 1.1,
		}},
		{"long", 20, func(t *testing.T) Plan {
			const n = 10_000
			cp := segmentProblem(t, n)
			return Plan{Workload: segmentChain(t, n), Model: cp.Model, Replanner: ChainReplanner{CP: cp}}
		}, RunSpec{
			Store:       &StoreLayout{Faults: &store.FaultPlan{Seed: 8, WriteFail: 0.3, MeanLatency: 0.05}},
			RetryPolicy: ExpBackoff{Base: 0.5, MaxAttempts: 2}, ReplanRatio: 1.1, Cooldown: 100,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.RunID, spec.Seed, spec.Salt = "replay", 31, 1
			plan := tc.plan(t)
			ref, err := spec.Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Replans < tc.minReplans {
				t.Fatalf("reference run replanned %d times, want at least %d", ref.Replans, tc.minReplans)
			}
			var kills []int
			for i := 1; i < len(ref.Journal); i++ {
				if ref.Journal[i].Kind == EvSaveResult && ref.Journal[i-1].Kind == EvReplan {
					kills = append(kills, i+1)
				}
			}
			b, err := spec.Open()
			if err != nil {
				t.Fatal(err)
			}
			counter := &countingReplanner{Replanner: plan.Replanner}
			plan.Replanner = counter
			multi := 0 // resumes whose journal held more than one replan
			for i := 0; i <= len(kills); i++ {
				s := spec
				if i < len(kills) {
					s.CrashAfterEvents = kills[i]
				}
				counter.calls = 0
				res, err := s.RunOn(plan, b)
				if i < len(kills) && !errors.Is(err, ErrCrashed) {
					t.Fatalf("kill %d@%d: %v, want ErrCrashed", i, kills[i], err)
				}
				if i == len(kills) && err != nil {
					t.Fatalf("final resume: %v", err)
				}
				if !res.Resumed {
					if i > 0 {
						t.Fatalf("invocation %d did not resume", i)
					}
					continue
				}
				restored := res.Journal[:res.RestoredEvents].Count(EvReplan)
				live := res.Journal[res.RestoredEvents:].Count(EvReplan)
				if restored > 1 {
					multi++
				}
				if got, want := counter.calls-live, min(restored, 1); got != want {
					t.Fatalf("resume %d from checkpoint %d (%d replans journaled) called Replan %d times, want %d",
						i, res.ResumeSeq, restored, got, want)
				}
				if i == len(kills) {
					if !res.Journal.Equal(ref.Journal) || res.Metrics != ref.Metrics {
						t.Fatalf("resumed journal %016x, want %016x; metrics %+v, want %+v",
							res.Journal.Hash(), ref.Journal.Hash(), res.Metrics, ref.Metrics)
					}
					if res.Replans != ref.Replans || res.Level != ref.Level || res.MaxRewind != ref.MaxRewind {
						t.Fatalf("replans %d, level %v, max rewind %v; want %d, %v, %v",
							res.Replans, res.Level, res.MaxRewind, ref.Replans, ref.Level, ref.MaxRewind)
					}
				}
			}
			if multi == 0 {
				t.Fatal("no resume restored more than one replan")
			}
		})
	}
}

// TestResumeRejectsMisplacedReplan edits the replan cut a payload
// records so it disagrees with the payload's journal. The resume must
// refuse it with an error rather than rebuild a layout the
// uninterrupted run never held.
func TestResumeRejectsMisplacedReplan(t *testing.T) {
	const run = "misplaced"
	cp := segmentProblem(t, 48)
	w := segmentChain(t, 48)
	opts := func(mem *store.MemStore, kill int) Options {
		return Options{
			RunID: run, Downtime: 1, CrashAfterEvents: kill,
			Store: store.Checked(store.NewFaultStore(mem, store.FaultPlan{Seed: 3, MeanLatency: 0.5})),
			Adaptive: &AdaptiveOptions{
				Retry: ExpBackoff{Base: 0.25, MaxAttempts: 2}, Replanner: ChainReplanner{CP: cp}, ReplanRatio: 1.1,
			},
		}
	}
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: cp.Model.Lambda}, 31, 1) }
	ref, err := Execute(w, src(), opts(store.NewMemStore(), 0))
	if err != nil {
		t.Fatal(err)
	}
	// Kill after the save of the second replan's commit, or after the
	// save of a commit before the first replan.
	var kill, quiet int
	replans := 0
	for i := 1; i < len(ref.Journal); i++ {
		if ref.Journal[i].Kind != EvSaveResult {
			continue
		}
		switch ref.Journal[i-1].Kind {
		case EvReplan:
			if replans++; replans == 2 {
				kill = i + 1
			}
		case EvHealth:
			if replans == 0 {
				quiet = i + 1
			}
		}
	}
	if kill == 0 || quiet == 0 {
		t.Fatalf("reference run has %d replans; want a second replan and an early commit without one", replans)
	}
	for _, tc := range []struct {
		name string
		kill int
		edit func(at1 int, seq uint64) int
	}{
		{"never", kill, func(int, uint64) int { return 0 }},
		{"earlier", kill, func(at1 int, _ uint64) int { return at1 - 1 }},
		{"past-seq", kill, func(_ int, seq uint64) int { return int(seq) + 1 }},
		{"no-replan", quiet, func(int, uint64) int { return 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMemStore()
			if _, err := Execute(w, src(), opts(mem, tc.kill)); !errors.Is(err, ErrCrashed) {
				t.Fatalf("kill@%d: %v, want ErrCrashed", tc.kill, err)
			}
			seqs, err := mem.List(run)
			if err != nil || len(seqs) == 0 {
				t.Fatalf("listing checkpoints: %v (%d)", err, len(seqs))
			}
			last := seqs[len(seqs)-1]
			rewrite(t, mem, run, last, func(st *execState) {
				st.lastReplanAt1 = tc.edit(st.lastReplanAt1, st.seq)
			})
			_, err = Execute(w, src(), opts(mem, 0))
			if err == nil || errors.Is(err, ErrCrashed) || !strings.Contains(err.Error(), "replan") {
				t.Fatalf("resume of a payload whose replan cut disagrees with its journal: %v, want a replan error", err)
			}
		})
	}
}
