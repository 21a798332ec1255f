package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/expt"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

// row is one named benchmark of the trajectory. bench does its own
// setup, then times b.N operations; it reports through b.Fatal and, for
// the lattice rows, b.ReportMetric(…, "states") (the monotone frontier
// rows: "evals/n").
type row struct {
	file  string // snapshot the row belongs to: BENCH_<file>.json
	name  string
	n     int
	bench func(b *testing.B)
}

// files lists the snapshots in the order the runner measures them.
var files = []string{"chain_dp", "sim", "dag", "exec"}

// table returns every row of the trajectory. Building it only allocates
// closures; all setup runs inside the rows.
func table() []row {
	var rows []row
	add := func(file, name string, n int, bench func(b *testing.B)) {
		rows = append(rows, row{file, name, n, bench})
	}

	// BENCH_chain_dp.json: the chain placement arms on the paper's
	// Algorithm 1 workload. The portfolio dispatches to the monotone arm
	// on these quadrangle-certified chains; the kernel arm is the pruned
	// scan and the dense arm the plain O(n²) scan.
	for _, n := range []int{100, 1000, 5000} {
		for _, arm := range []struct {
			name  string
			solve func(*core.ChainProblem) (core.ChainResult, error)
		}{
			{"portfolio", core.SolveChainDP},
			{"monotone", core.SolveChainDPMonotone},
			{"kernel", core.SolveChainDPKernel},
			{"dense", core.SolveChainDPDense},
		} {
			add("chain_dp", fmt.Sprintf("chain_dp_%s/n=%d", arm.name, n), n, func(b *testing.B) {
				cp := chainProblem(b, n, 1, 0.01)
				loop(b, func() error { _, err := arm.solve(cp); return err })
			})
		}
	}
	// Frontier points: the workload class E16 sweeps, at platform MTBF
	// 1000 where the kernel scan's pruned look-ahead is longest — the
	// monotone arm's ≥20× win at n = 200,000 and its sub-second exact
	// million-task solve — plus MTBF 10⁶, whose long segments hand the
	// monotone arm's window scan over to its candidate deque. The
	// monotone rows report their oracle evaluations per task.
	for _, f := range []struct {
		name, mtbf string
		n          int
		lambda     float64
		solve      func(*core.ChainProblem) (core.ChainResult, core.DPStats, error)
	}{
		{"monotone", "", 200000, 0.001, core.SolveChainDPMonotoneStats},
		{"kernel", "", 200000, 0.001, core.SolveChainDPKernelStats},
		{"monotone", "", 1000000, 0.001, core.SolveChainDPMonotoneStats},
		{"monotone", ",mtbf=1e6", 200000, 1e-6, core.SolveChainDPMonotoneStats},
	} {
		add("chain_dp", fmt.Sprintf("chain_dp_%s_frontier/n=%d%s", f.name, f.n, f.mtbf), f.n, func(b *testing.B) {
			cp := chainProblem(b, f.n, 1, f.lambda)
			var stats core.DPStats
			loop(b, func() error { _, st, err := f.solve(cp); stats = st; return err })
			if stats.Arm == core.ArmMonotone {
				b.ReportMetric(float64(stats.Transitions)/float64(f.n), "evals/n")
			}
		})
	}
	// The segment kernel's table build alone, on the million-task
	// frontier chain: Reinit on a reused kernel, so the row reads the
	// batched exponentials and the build loop without the allocation.
	add("chain_dp", "chain_kernel_build/n=1000000", 1000000, func(b *testing.B) {
		cp := chainProblem(b, 1000000, 1, 0.001)
		kern := &expectation.SegmentKernel{}
		reinit := func() error {
			return kern.Reinit(cp.Model, cp.Weights, cp.Ckpt, cp.InitialRecovery, cp.Rec)
		}
		check(b, reinit())
		loop(b, reinit)
	})
	// Steady-state simulation loop, the regime MonteCarlo's workers run
	// in: a reused resettable process, 0 allocs/op.
	add("chain_dp", "sim_run_steady_state", 0, func(b *testing.B) {
		cp, w := execChain(b, 64)
		segs, err := cp.Segments(w.CheckpointAfter)
		check(b, err)
		proc := failure.NewExponentialProcess(0.05, rng.New(6))
		opts := sim.Options{Downtime: 0.5}
		loop(b, func() error { proc.Reset(); _, err := sim.Run(segs, proc, opts); return err })
	})
	add("chain_dp", "chain_dp_bounded/n=256,budget=8", 256, func(b *testing.B) {
		cp := chainProblem(b, 256, 3, 0.01)
		loop(b, func() error { _, err := core.SolveChainDPBounded(cp, 8); return err })
	})
	// The Monge-pruned homogeneous solver vs the general DP on the same
	// constant-cost instances: the speedup the paper's general cost
	// model gives up.
	for _, n := range []int{1024, 4096} {
		for _, arm := range []struct {
			name  string
			solve func(*core.ChainProblem) (core.ChainResult, error)
		}{
			{"general", core.SolveChainDP},
			{"pruned", core.SolveChainDPHomogeneous},
		} {
			add("chain_dp", fmt.Sprintf("homogeneous_%s/n=%d", arm.name, n), n, func(b *testing.B) {
				cp := homogeneousChain(b, n)
				loop(b, func() error { _, err := arm.solve(cp); return err })
			})
		}
	}
	add("chain_dp", "expected_time", 0, func(b *testing.B) {
		m, err := expectation.NewModel(0.01, 0.5)
		check(b, err)
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += m.ExpectedTime(10, 1, 1)
		}
		_ = sink
	})
	for _, ind := range []struct {
		name  string
		n     int
		seed  uint64
		solve func(*core.IndependentProblem) (core.Grouping, error)
	}{
		{"exact", 12, 3, core.SolveIndependentExact},
		{"lpt", 100, 4, core.SolveIndependentLPT},
	} {
		add("chain_dp", fmt.Sprintf("independent_%s/n=%d", ind.name, ind.n), ind.n, func(b *testing.B) {
			r := rng.New(ind.seed)
			weights := make([]float64, ind.n)
			for i := range weights {
				weights[i] = r.Range(1, 10)
			}
			m, err := expectation.NewModel(0.02, 0)
			check(b, err)
			ip := &core.IndependentProblem{Weights: weights, Checkpoint: 0.5, Recovery: 0.5, Model: m}
			loop(b, func() error { _, err := ind.solve(ip); return err })
		})
	}

	// BENCH_sim.json: the Monte-Carlo backbone. Scan vs heap: one op =
	// one campaign run (reset + full simulation of a 512-segment plan)
	// on p processors at constant platform MTBF — the E14 configuration,
	// shared via the expt helpers. The scan pays two O(p) passes per
	// segment; the heap leaves the O(p) reset as the only p term.
	for _, p := range []int{1, 1000, 65536} {
		for _, arm := range []string{"scan", "heap"} {
			add("sim", fmt.Sprintf("superposed_campaign_%s/p=%d", arm, p), p, func(b *testing.B) {
				e, err := failure.NewExponential(1 / (expt.E14PlatformMTBF * float64(p)))
				check(b, err)
				var proc resettableProcess
				if arm == "scan" {
					proc, err = failure.NewScanProcess(e, p, failure.RejuvenateFailedOnly, rng.New(7))
				} else {
					proc, err = failure.NewSuperposedProcess(e, p, failure.RejuvenateFailedOnly, rng.New(7))
				}
				check(b, err)
				campaignLoop(b, proc)
			})
		}
	}
	// The heap on E14's Weibull law, whose per-clock transform (a Pow)
	// is what the lazy clocks defer.
	for _, p := range []int{1000, 65536} {
		add("sim", fmt.Sprintf("superposed_campaign_heap/law=weibull,p=%d", p), p, func(b *testing.B) {
			weib, err := expt.E14WeibullLaw(expt.E14PlatformMTBF * float64(p))
			check(b, err)
			proc, err := failure.NewSuperposedProcess(weib, p, failure.RejuvenateFailedOnly, rng.New(7))
			check(b, err)
			campaignLoop(b, proc)
		})
	}
	// CRN vs independent comparator campaigns: one op = comparing two
	// placements over crnRuns replications on a crnProcs-processor
	// Weibull platform — once replaying a shared recorded trace per
	// replication, once resampling per candidate.
	copts := sim.Options{Downtime: 0.5, Workers: 1}
	add("sim", "campaign_crn/s=2", crnProcs, func(b *testing.B) {
		plans, factory := comparator(b)
		loop(b, func() error { _, err := sim.CampaignPlans(plans, factory, copts, crnRuns, rng.New(9)); return err })
	})
	add("sim", "campaign_independent/s=2", crnProcs, func(b *testing.B) {
		plans, factory := comparator(b)
		loop(b, func() error {
			for _, plan := range plans {
				if _, err := sim.MonteCarlo(plan, factory, copts, crnRuns, rng.New(9)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	// One candidate's sampling schedule: MonteCarlo's keyed blocks on
	// one and two workers (Options.Workers, not GOMAXPROCS) over a
	// 20-task chain, and the one-candidate block campaign with digests
	// that the comparator rows' first plan costs on its own.
	for _, workers := range []int{1, 2} {
		add("sim", fmt.Sprintf("mc/runs=%d,workers=%d", mcRuns, workers), mcRuns, func(b *testing.B) {
			cp, w := execChain(b, 20)
			opts := sim.Options{Workers: workers}
			factory := sim.ExponentialFactory(cp.Model.Lambda)
			loop(b, func() error {
				_, err := sim.MonteCarloPlan(cp, w.CheckpointAfter, factory, opts, mcRuns, rng.New(9))
				return err
			})
		})
	}
	add("sim", "campaign_block/cands=1", crnProcs, func(b *testing.B) {
		plans, factory := comparator(b)
		so := sim.ShardOptions{Options: copts, Seed: 9, Runs: crnRuns, Shards: 1}
		loop(b, func() error { _, err := sim.CampaignPlansSharded(plans[:1], factory, so); return err })
	})
	// Sharded campaigns: the same comparison through the
	// block-deterministic sharded pipeline. Results are bit-identical
	// across shard counts, so these rows price the per-block setup and
	// partial aggregates; Workers is pinned to 1 so ns/op tracks the
	// single-threaded overhead.
	for _, shards := range []int{1, 4, 16} {
		add("sim", fmt.Sprintf("campaign_sharded/shards=%d", shards), crnProcs, func(b *testing.B) {
			plans, factory := comparator(b)
			so := sim.ShardOptions{Options: copts, Seed: 9, Runs: crnRuns, Shards: shards,
				BlockSize: 8} // 25 blocks, so the 16-shard split stays valid
			loop(b, func() error { _, err := sim.CampaignPlansSharded(plans, factory, so); return err })
		})
	}
	// The four-shard campaign again with every block and shard result
	// written to a spill directory: the price of resumability. Each op
	// spills into a fresh directory, so nothing is loaded back.
	add("sim", "campaign_spill/shards=4", crnProcs, func(b *testing.B) {
		plans, factory := comparator(b)
		root := b.TempDir()
		so := sim.ShardOptions{Options: copts, Seed: 9, Runs: crnRuns, Shards: 4, BlockSize: 8}
		op := 0
		loop(b, func() error {
			op++
			so.SpillDir = filepath.Join(root, strconv.Itoa(op))
			_, err := sim.CampaignPlansSharded(plans, factory, so)
			return err
		})
	})
	// Adaptive stopping vs fixed budget on the same pair: the on arm
	// starts at a quarter of the budget and stops as soon as the paired
	// delta's CI excludes zero.
	add("sim", "campaign_adaptive/mode=off", crnProcs, func(b *testing.B) {
		plans, factory := comparator(b)
		so := sim.ShardOptions{Options: copts, Seed: 9, Runs: crnRuns, Shards: 1}
		loop(b, func() error { _, err := sim.CampaignPlansSharded(plans, factory, so); return err })
	})
	add("sim", "campaign_adaptive/mode=on", crnProcs, func(b *testing.B) {
		plans, factory := comparator(b)
		so := sim.ShardOptions{Options: copts, Seed: 9, Shards: 1}
		ao := sim.AdaptiveOptions{TargetWidth: 1e-9, InitialRuns: crnRuns / 4, MaxRuns: crnRuns}
		loop(b, func() error { _, err := sim.CampaignPlansAdaptive(plans, factory, so, ao); return err })
	})

	// BENCH_dag.json: the downset-lattice DP vs factorial order
	// enumeration on E15's in-trees (3 chains of (n−1)/3 tasks under a
	// root). The factorial arm runs only where the linear extensions
	// stay benchmarkable: 90 at n = 7, 1,680 at n = 10, 756,756 at
	// n = 16. Its absence beyond is the story, next to lattice solves
	// that remain a few ms with their peak state counts recorded.
	for _, n := range []int{7, 10, 16, 19} {
		add("dag", fmt.Sprintf("dag_lattice/n=%d", n), n, func(b *testing.B) {
			g, m := e15Intree(b, n)
			var st core.LatticeStats
			loop(b, func() (err error) {
				_, st, err = core.SolveDAGLatticeStats(g, m, core.LastTaskCosts{}, core.Options{Workers: 1})
				return err
			})
			b.ReportMetric(float64(st.States), "states")
		})
		if n > 10 {
			continue
		}
		add("dag", fmt.Sprintf("dag_factorial/n=%d", n), n, func(b *testing.B) {
			g, m := e15Intree(b, n)
			lat, err := core.SolveDAGLattice(g, m, core.LastTaskCosts{}, core.Options{Workers: 1})
			check(b, err)
			loop(b, func() error {
				ex, err := core.SolveDAGExhaustive(g, m, core.LastTaskCosts{}, 0)
				if err == nil && ex.Expected != lat.Expected {
					err = fmt.Errorf("factorial %v ≠ lattice %v", ex.Expected, lat.Expected)
				}
				return err
			})
		})
	}
	// Portfolio serial vs parallel on a wide layered workflow: the same
	// result bit-for-bit, the parallel arm bounded by Options.Workers.
	for _, workers := range []int{1, 4} {
		add("dag", fmt.Sprintf("dag_portfolio/workers=%d", workers), 200, func(b *testing.B) {
			g, err := dag.Layered(10, 20, 0.3, dag.DefaultWeights(), rng.New(14))
			check(b, err)
			m, err := expt.E15Model()
			check(b, err)
			opts := core.Options{Workers: workers}
			loop(b, func() error { _, err := core.SolveDAGWith(g, m, core.LiveSetCosts{}, opts); return err })
		})
	}

	// The live-set cost model on dag.Layered(n/10, 10, 0.3) at λ = 10⁻³:
	// the per-order DP on the topological order, compiling a plan into a
	// workload (the DP's plan up to n = 10⁴; at 10⁵ a checkpoint after
	// every 4th position, so setup runs no DP), and the serial portfolio.
	for _, n := range []int{1000, 10000} {
		add("dag", fmt.Sprintf("dag_order_dp/model=live-set,n=%d", n), n, func(b *testing.B) {
			g, m, order := layeredDAG(b, n)
			loop(b, func() error { _, err := core.SolveOrderDP(g, order, m, core.LiveSetCosts{}); return err })
		})
	}
	for _, n := range []int{1000, 10000, 100000} {
		add("dag", fmt.Sprintf("dag_workload/n=%d", n), n, func(b *testing.B) {
			g, m, order := layeredDAG(b, n)
			plan := core.Plan{Order: order, CheckpointAfter: make([]bool, n)}
			if n <= 10000 {
				res, err := core.SolveOrderDP(g, order, m, core.LiveSetCosts{})
				check(b, err)
				plan = res.Plan()
			} else {
				for i := 3; i < n; i += 4 {
					plan.CheckpointAfter[i] = true
				}
				plan.CheckpointAfter[n-1] = true
			}
			loop(b, func() error { _, err := exec.NewDAGWorkload(g, plan, core.LiveSetCosts{}); return err })
		})
	}
	// Building the graph every planning path reads first: a
	// DefaultWeights chain at 10⁴–10⁶ tasks (E13/E16's and perfbench
	// plan's workflow) and layeredDAG's 10⁵-task shape, each op one
	// complete generator call.
	for _, n := range []int{10000, 100000, 1000000} {
		add("dag", fmt.Sprintf("dag_build/kind=chain,n=%d", n), n, func(b *testing.B) {
			loop(b, func() error { _, err := dag.Chain(n, dag.DefaultWeights(), rng.New(15)); return err })
		})
	}
	add("dag", "dag_build/kind=layered,n=100000", 100000, func(b *testing.B) {
		loop(b, func() error {
			_, err := dag.Layered(10000, 10, 0.3, dag.DefaultWeights(), rng.New(15))
			return err
		})
	})
	add("dag", "dag_portfolio/workers=1,n=2000", 2000, func(b *testing.B) {
		g, m, _ := layeredDAG(b, 2000)
		opts := core.Options{Workers: 1}
		loop(b, func() error { _, err := core.SolveDAGWith(g, m, core.LiveSetCosts{}, opts); return err })
	})

	// BENCH_exec.json: the crash-safe runtime. One op = one complete
	// execution of execChain, bare and through each checkpoint store (so
	// the store rows read as persistence overhead), with the mem row
	// also at n = 4096 and 65536, whose bytes/op must grow linearly in n.
	for _, st := range []struct {
		name string
		n    int
		open func(b *testing.B) store.Store
	}{
		{"none", 64, func(*testing.B) store.Store { return nil }},
		{"mem", 64, memStore},
		{"file", 64, fileStore},
		{"mem n=4096", 4096, memStore},
		{"mem n=65536", 65536, memStore},
	} {
		add("exec", "exec_run/store="+st.name, st.n, func(b *testing.B) {
			_, w := execChain(b, st.n)
			src, s := keyedSource(), st.open(b)
			loop(b, func() error {
				src.Reset()
				opts := exec.Options{Downtime: 0.5}
				if s != nil {
					opts.RunID, opts.Store = "bench", s
				}
				if _, err := exec.Execute(w, src, opts); err != nil || s == nil {
					return err
				}
				// Purge the run so the next op starts cold, not resuming.
				seqs, err := s.List("bench")
				for _, seq := range seqs {
					if err == nil {
						err = s.Delete("bench", seq)
					}
				}
				return err
			})
		})
	}
	// Raw store Save on a checkpoint-sized 4 KiB payload: the codec seal
	// plus each layer's write path. The file row pays the fsync'd atomic
	// rename; quota adds the ledger; remote and quorum (one endpoint,
	// then three replicas at W=2, zero loss and virtual latency) add the
	// keyed network draws and the fan-out; lease adds the per-save fence
	// check.
	netCfg := netsim.Config{Seed: 29, Latency: 0.01, Jitter: 0.005}
	for _, st := range []struct {
		name string
		open func(b *testing.B) store.Store
	}{
		{"mem", memStore},
		{"file", fileStore},
		{"quota", func(b *testing.B) store.Store {
			return fresh(b, store.Spec{Backends: make([]store.Store, 1), Quota: store.NewQuotaLedger(store.Quota{}, nil)})
		}},
		{"remote", func(b *testing.B) store.Store {
			return fresh(b, store.Spec{Backends: make([]store.Store, 1), Net: &netCfg})
		}},
		{"quorum", func(b *testing.B) store.Store {
			return fresh(b, store.Spec{Backends: make([]store.Store, 3), Net: &netCfg})
		}},
		{"lease", func(b *testing.B) store.Store {
			l := fresh(b, store.Spec{Backends: make([]store.Store, 1), Lease: &store.LeaseConfig{Holder: "bench", TTL: 1e12}})
			_, _, err := store.AcquireLease(l, "save")
			check(b, err)
			return l
		}},
	} {
		add("exec", "store_save/kind="+st.name, 4096, func(b *testing.B) {
			s := st.open(b)
			payload := make([]byte, 4096)
			r := rng.New(17)
			for i := range payload {
				payload[i] = byte(r.Uint64())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Save("save", uint64(i%8)+1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Raw quorum Load of the same payload, the read path store_save's
	// quorum row writes: two replicas' keyed draws and mem copies.
	add("exec", "store_load/kind=quorum", 4096, func(b *testing.B) {
		s := fresh(b, store.Spec{Backends: make([]store.Store, 3), Net: &netCfg})
		payload := make([]byte, 4096)
		for seq := uint64(1); seq <= 8; seq++ {
			check(b, s.Save("load", seq, payload))
		}
		seq := uint64(0)
		loop(b, func() error {
			seq++
			_, err := s.Load("load", seq%8+1)
			return err
		})
	})
	// Scrub and anti-entropy passes over a run of n checkpoints on three
	// pre-filled replicas, each op through a freshly built Spec{Net,
	// Faults} stack as a restart builds one: the pass issues 3n+ replica
	// operations, each a fresh (kind, run, seq) to the stack's attempt
	// counters, so the rows price counters that start empty.
	faults := store.FaultPlan{Seed: 37, MeanLatency: 0.01}
	for _, pass := range []string{"scrub", "sync"} {
		for _, n := range []int{1024, 16384} {
			add("exec", fmt.Sprintf("store_%s/n=%d", pass, n), n, func(b *testing.B) {
				spec := store.Spec{Backends: make([]store.Store, 3), Net: &netCfg, Faults: &faults}
				filled := fresh(b, store.Spec{Backends: spec.Backends})
				payload := make([]byte, 256)
				for seq := uint64(1); seq <= uint64(n); seq++ {
					check(b, filled.Save("bench", seq, payload))
				}
				loop(b, func() error {
					st, err := spec.Build()
					if err != nil {
						return err
					}
					if pass == "scrub" {
						sc, _ := store.FindScrubber(st)
						_, err = sc.ScrubRun("bench")
					} else {
						sy, _ := store.FindSyncer(st)
						_, err = sy.SyncRun("bench")
					}
					return err
				})
			})
		}
	}
	// Degraded-store resilience: one suffix re-solve of the chain DP
	// from mid-plan — the cost the adaptive executor pays per replan,
	// which grows with n: a run that replans every k commits pays it
	// n/k times — and the full plan through a lossy, slow store with
	// exponential backoff, static vs adaptive, at equal fault exposure.
	for _, n := range []int{64, 4096, 65536} {
		name := "exec_adaptive/replan"
		if n > 64 {
			name += fmt.Sprintf(" n=%d", n)
		}
		add("exec", name, n, func(b *testing.B) {
			cp, _ := execChain(b, n)
			replanner := exec.ChainReplanner{CP: cp}
			loop(b, func() error { _, err := replanner.Replan(n/2, 1.5); return err })
		})
	}
	for _, mode := range []string{"static", "adaptive"} {
		add("exec", "exec_adaptive/run mode="+mode, 64, func(b *testing.B) {
			cp, w := execChain(b, 64)
			var rp exec.Replanner
			if mode == "adaptive" {
				rp = exec.ChainReplanner{CP: cp}
			}
			src := keyedSource()
			spec := store.Spec{
				Backends: make([]store.Store, 1),
				Faults:   &store.FaultPlan{Seed: 23, WriteFail: 0.1, ReadFail: 0.05, MeanLatency: 0.5},
			}
			loop(b, func() error {
				src.Reset()
				st := fresh(b, spec)
				_, err := exec.Execute(w, src, exec.Options{
					RunID: "bench", Store: st, Downtime: 0.5,
					Adaptive: &exec.AdaptiveOptions{
						Retry:       exec.ExpBackoff{Base: 0.25, Cap: 1, MaxAttempts: 4},
						Replanner:   rp,
						ReplanRatio: 1.3,
					},
				})
				return err
			})
		})
	}
	// Restart: an adaptive ChainReplanner run through a latency-injecting
	// in-memory stack, killed after 9/10 of its saves. One op is one
	// process start: a fresh stack over the run's backends, then an
	// Execute that lists, loads and decodes the chain, rebuilds the
	// replanned layout and stops at its first new event (a crash point
	// of one event), like perfbench's recover restart. Its bytes per
	// task must stay flat in n: re-solving every journaled replan would
	// grow them with the replan count.
	for _, n := range []int{4096, 65536} {
		add("exec", fmt.Sprintf("exec_resume/n=%d", n), n, func(b *testing.B) {
			cp, w := execChain(b, n)
			src := keyedSource()
			spec := store.Spec{Backends: make([]store.Store, 1), Faults: &store.FaultPlan{Seed: 41, MeanLatency: 0.5}}
			opts := exec.Options{
				RunID: "bench", Downtime: 0.5,
				Adaptive: &exec.AdaptiveOptions{
					Retry:       exec.ExpBackoff{Base: 0.25, Cap: 1, MaxAttempts: 4},
					Replanner:   exec.ChainReplanner{CP: cp},
					ReplanRatio: 1.1,
					Cooldown:    256,
				},
			}
			ref := opts
			ref.Store = fresh(b, spec)
			res, err := exec.Execute(w, src, ref)
			check(b, err)
			killed := opts
			killed.Store, killed.CrashAfterSaves = fresh(b, spec), res.Saves*9/10
			if _, err := exec.Execute(w, src, killed); !errors.Is(err, exec.ErrCrashed) {
				b.Fatalf("kill after %d saves: %v, want the injected crash", killed.CrashAfterSaves, err)
			}
			loop(b, func() error {
				st, err := spec.Build()
				if err != nil {
					return err
				}
				restart := opts
				restart.Store, restart.CrashAfterEvents = st, 1
				res, err := exec.Execute(w, src, restart)
				switch {
				case !errors.Is(err, exec.ErrCrashed):
					return fmt.Errorf("restart = %v, want the injected crash", err)
				case !res.Resumed || len(res.Journal) != res.RestoredEvents+1:
					return fmt.Errorf("restart resumed=%v and stopped after %d of %d restored events", res.Resumed, len(res.Journal), res.RestoredEvents)
				case res.Journal.Count(exec.EvReplan) < 2:
					return fmt.Errorf("restart restored %d replans, want several", res.Journal.Count(exec.EvReplan))
				}
				return nil
			})
		})
	}
	// Partition tolerance: one adaptive execution through a networked
	// store whose endpoint s0 is cut off for the middle of the run. The
	// single remote rides it out (timeouts, backoff, probes); the quorum
	// keeps committing on its two-replica majority. exec_sync adds an
	// executor-driven anti-entropy pass every 3rd commit, pricing the
	// convergence of the partitioned replica during the run.
	for _, arm := range []struct {
		name      string
		replicas  int
		syncEvery int
	}{
		{"exec_partition/store=remote", 1, 0},
		{"exec_partition/store=quorum", 3, 0},
		{"exec_sync/store=quorum sync-every=3", 3, 3},
	} {
		add("exec", arm.name, 64, func(b *testing.B) {
			_, w := execChain(b, 64)
			src := keyedSource()
			bare, err := exec.Execute(w, src, exec.Options{Downtime: 0.5})
			check(b, err)
			cfg := netsim.Config{Seed: 31, Latency: 0.01, Partitions: []netsim.Window{
				{Start: 0.3 * bare.Makespan, End: 0.7 * bare.Makespan, Isolated: []string{"s0"}},
			}}
			spec := store.Spec{Backends: make([]store.Store, arm.replicas), Net: &cfg, Timeout: 0.25}
			loop(b, func() error {
				src.Reset()
				st := fresh(b, spec)
				_, err := exec.Execute(w, src, exec.Options{
					RunID: "bench", Store: st, Downtime: 0.5,
					Adaptive: &exec.AdaptiveOptions{
						Retry:      exec.ExpBackoff{Base: 0.1, Cap: 0.5, MaxAttempts: 3},
						DownAfter:  2,
						ProbeEvery: 2,
						SyncEvery:  arm.syncEvery,
					},
				})
				return err
			})
		})
	}
	return rows
}

// check fails the row on a setup error.
func check(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// loop starts the timer after the row's setup and runs op b.N times.
func loop(b *testing.B, op func() error) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// chainProblem is the Algorithm 1 workload: an n-task default-weights
// chain drawn from seed, under failure rate lambda and downtime 0.5.
func chainProblem(b *testing.B, n int, seed uint64, lambda float64) *core.ChainProblem {
	g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(seed))
	check(b, err)
	m, err := expectation.NewModel(lambda, 0.5)
	check(b, err)
	cp, _, err := core.NewChainProblem(g, m, 0)
	check(b, err)
	return cp
}

// homogeneousChain is an n-task chain with random weights and constant
// checkpoint and recovery costs.
func homogeneousChain(b *testing.B, n int) *core.ChainProblem {
	r := rng.New(2)
	m, err := expectation.NewModel(0.02, 0.5)
	check(b, err)
	cp := &core.ChainProblem{
		Weights:         make([]float64, n),
		Ckpt:            make([]float64, n),
		Rec:             make([]float64, n),
		InitialRecovery: 0.3,
		Model:           m,
	}
	for i := 0; i < n; i++ {
		cp.Weights[i] = r.Range(0.5, 8)
		cp.Ckpt[i] = 0.3
		cp.Rec[i] = 0.3
	}
	return cp
}

// execChain plans the runtime rows' workload: an n-task chain
// (λ = 0.05, DP placement); n = 64 is also the steady-state sim loop's.
func execChain(b *testing.B, n int) (*core.ChainProblem, *exec.Workload) {
	cp := chainProblem(b, n, 5, 0.05)
	dp, err := core.SolveChainDP(cp)
	check(b, err)
	w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
	check(b, err)
	return cp, w
}

type resettableProcess interface {
	failure.Process
	failure.Resettable
}

// campaignLoop times one campaign run per op on a reused process.
func campaignLoop(b *testing.B, proc resettableProcess) {
	segs := expt.E14Segments()
	opts := sim.Options{Downtime: 0.5}
	loop(b, func() error { proc.Reset(); _, err := sim.Run(segs, proc, opts); return err })
}

// The comparator campaigns' platform size and replication budget, and
// the mc rows' run count.
const (
	crnProcs = 1000
	crnRuns  = 200
	mcRuns   = 50000
)

// comparator returns E14's two comparator plans and a Weibull platform
// factory for them.
func comparator(b *testing.B) ([][]core.Segment, sim.ProcessFactory) {
	weib, err := expt.E14WeibullLaw(expt.E14PlatformMTBF / 20 * crnProcs)
	check(b, err)
	return expt.E14ComparatorPlans(), sim.SuperposedFactory(weib, crnProcs, failure.RejuvenateFailedOnly)
}

// e15Intree is E15's n-task in-tree and failure model.
func e15Intree(b *testing.B, n int) (*dag.Graph, expectation.Model) {
	g, err := expt.E15Graph("in-tree", n, rng.New(13))
	check(b, err)
	if g.Len() != n {
		b.Fatalf("in-tree has %d tasks, want %d", g.Len(), n)
	}
	m, err := expt.E15Model()
	check(b, err)
	return g, m
}

// layeredDAG is the live-set rows' workload: dag.Layered(n/10, 10, 0.3)
// under failure rate 10⁻³ and downtime 0.5, with its topological order.
func layeredDAG(b *testing.B, n int) (*dag.Graph, expectation.Model, []int) {
	g, err := dag.Layered(n/10, 10, 0.3, dag.DefaultWeights(), rng.New(15))
	check(b, err)
	m, err := expectation.NewModel(1e-3, 0.5)
	check(b, err)
	order, err := g.TopologicalOrder()
	check(b, err)
	return g, m, order
}

func keyedSource() *exec.KeyedSource {
	return exec.NewKeyedSource(failure.Exponential{Lambda: 0.05}, 6, 1)
}

func memStore(b *testing.B) store.Store {
	return fresh(b, store.Spec{Backends: make([]store.Store, 1)})
}

// fileStore opens a file store in a fresh fixed-pattern temp dir rather
// than b.TempDir, whose path embeds the benchmark's name: path length
// reaches allocs/op (short string concatenations stay on the stack), so
// the row must measure the same paths under benchtraj and go test.
func fileStore(b *testing.B) store.Store {
	dir, err := os.MkdirTemp("", "benchtraj-exec-*")
	check(b, err)
	b.Cleanup(func() { os.RemoveAll(dir) })
	fs, err := store.NewFileStore(dir)
	check(b, err)
	st, err := store.Spec{Backends: []store.Store{fs}}.Build()
	check(b, err)
	return st
}

// fresh builds spec's stack over new mem stores written into its
// Backends slice, so a timed loop reuses the slice: Build keeps no
// reference to it, only to its elements.
func fresh(b *testing.B, spec store.Spec) store.Store {
	for i := range spec.Backends {
		spec.Backends[i] = store.NewMemStore()
	}
	st, err := spec.Build()
	check(b, err)
	return st
}
