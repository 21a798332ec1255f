// Command chkptexec executes a checkpoint plan on the crash-safe
// runtime (internal/exec): segments of work ending in checkpoints run
// against a seeded failure process under a virtual clock, uncheckpointed
// progress is lost on every failure, and committed checkpoints persist
// through a pluggable store.
//
// Two modes:
//
// Campaign (default) — execute the plan many times against independent
// keyed failure sources and compare the realized mean makespan with the
// planned expectation (Proposition 1):
//
//	chkptexec -workflow wf.json -lambda 0.01 -downtime 1 -runs 20000
//	chkptexec -workflow wf.json -strategy daly -runs 20000
//	chkptexec -workflow dag.json -costmodel live-set -runs 10000
//
// Persisted single run — execute once with checkpoints saved to a
// crash-durable file store. -crash-events kills the run at an injected
// point; re-running the identical command line resumes from the store
// and finishes with a journal byte-identical to an uninterrupted run
// (the printed journal hash is the witness). -faults wraps the store in
// a deterministic fault injector (failed and torn writes, lost old
// checkpoints, transient read failures) to drill the recovery paths:
//
//	chkptexec -workflow wf.json -dir /tmp/ckpts -crash-events 40
//	chkptexec -workflow wf.json -dir /tmp/ckpts            # resumes
//	chkptexec -workflow wf.json -dir /tmp/ckpts -faults -retry-policy fixed:4
//
// Degraded-store resilience — every persisted run journals each save's
// outcome, charges the store's latency and retry backoff to its virtual
// clock, and walks a degradation ladder when saves give up (failover to
// -secondary-dir, then persistence off), and prints a resilience
// summary. -retry-policy, -replan-threshold (online suffix replanning
// under cost drift), -quota and -sync-every tune it. -tenants N runs N
// concurrent persisted runs (<run-id>-t0 .. -t<N-1>) against one shared
// store stack; crash flags then apply to tenant 0 only:
//
//	chkptexec -workflow wf.json -dir /tmp/ckpts -faults -fault-latency 2 \
//	    -retry-policy exp:0.5 -replan-threshold 1.3
//	chkptexec -workflow wf.json -dir /tmp/ckpts -faults \
//	    -retry-policy fixed:2 -secondary-dir /tmp/ckpts2
//	chkptexec -workflow wf.json -dir /tmp/ckpts -tenants 4 -quota ckpts:3
//
// Quota accounting is per process: a resumed invocation starts with an
// empty ledger and only counts what it retains from then on.
//
// Networked stores — the -net-* flags route every store operation
// through a deterministic simulated network (keyed-stream latency,
// jitter, loss, and scheduled -partition windows isolating endpoint
// s0); -replicas N spreads checkpoints across N sealed remotes under a
// write quorum (-write-quorum, majority by default), so the run rides
// out a partition that cuts off a minority of replicas.
// -plan-from-telemetry closes the planner-feedback loop at plan time:
// the store stack is probed before planning and the placement re-solved
// with the effective checkpoint cost. -trace <csv> replays a recorded
// FTA-style failure log (see cmd/tracegen) instead of the seeded law,
// and fails loudly if the log runs out mid-run:
//
//	chkptexec -workflow wf.json -dir /tmp/ckpts -net-latency 0.5 \
//	    -net-jitter 0.2 -net-loss 0.05 -replicas 3 -partition 10:25 \
//	    -retry-policy exp:0.5
//	chkptexec -workflow wf.json -dir /tmp/ckpts -net-latency 2 -plan-from-telemetry
//	chkptexec -workflow wf.json -dir /tmp/ckpts -trace trace.csv
//
// Chain workflows choose the checkpoint vector with -strategy
// (dp | always | never | daly | young | every:k); general DAGs are
// linearized in topological order and placed optimally by the per-order
// DP under -costmodel (last-task | live-set). The same construction
// yields the online replanner: chains re-solve the suffix chain DP,
// DAGs the per-order placement DP under the chosen cost model.
//
// Every persisted mode maps its flags onto one exec.RunSpec: the store
// flags become its StoreLayout, the resilience flags its retry policy
// and ladder knobs, the crash flags its kill points. -contend runs
// exec.FencingDrill over that spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/trace"
)

// config carries every flag; run is pure in it so tests drive the CLI
// without exec.
type config struct {
	wfPath    string
	lambda    float64
	downtime  float64
	seed      uint64
	runs      int
	strategy  string
	costmodel string

	dir         string
	runID       string
	crashEvents int
	crashSaves  int
	faults      bool
	faultSeed   uint64

	retryPolicy     string
	replanThreshold float64
	quota           string
	tenants         int
	secondaryDir    string
	faultLatency    float64

	tracePath         string
	planFromTelemetry bool

	netLatency  float64
	netJitter   float64
	netLoss     float64
	netTimeout  float64
	netSeed     uint64
	partition   string
	replicas    int
	writeQuorum int

	lease     float64
	holder    string
	takeover  bool
	contend   bool
	syncMode  bool
	scrub     bool
	syncEvery int
}

// networked reports whether any network flag routes the store through
// the simulated network. Any nonzero value counts, so store.Spec
// rejects a negative or NaN one instead of ignoring it.
func (c config) networked() bool {
	return c.netLatency != 0 || c.netJitter != 0 || c.netLoss != 0 ||
		c.partition != "" || c.replicas > 1 || c.writeQuorum != 0
}

// maintenance reports whether the invocation is a store-maintenance
// pass (-sync / -scrub) rather than an execution — no workflow needed.
func (c config) maintenance() bool {
	return c.syncMode || c.scrub
}

func main() {
	var cfg config
	flag.StringVar(&cfg.wfPath, "workflow", "", "workflow JSON file (required)")
	flag.Float64Var(&cfg.lambda, "lambda", 0.01, "platform failure rate λ")
	flag.Float64Var(&cfg.downtime, "downtime", 1, "downtime D after each failure")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed (keys every failure gap)")
	flag.IntVar(&cfg.runs, "runs", 20000, "campaign executions (campaign mode)")
	flag.StringVar(&cfg.strategy, "strategy", "dp", "chain checkpoint strategy: dp | always | never | daly | young | every:k")
	flag.StringVar(&cfg.costmodel, "costmodel", "last-task", "DAG cost model: last-task | live-set")
	flag.StringVar(&cfg.dir, "dir", "", "checkpoint store directory: switches to a persisted single run that resumes across invocations")
	flag.StringVar(&cfg.runID, "run-id", "run", "run name inside the store")
	flag.IntVar(&cfg.crashEvents, "crash-events", 0, "kill the run once the journal holds this many events (demo crash point)")
	flag.IntVar(&cfg.crashSaves, "crash-saves", 0, "kill the run after this many checkpoint saves")
	flag.BoolVar(&cfg.faults, "faults", false, "wrap the store in the deterministic fault injector")
	flag.Uint64Var(&cfg.faultSeed, "fault-seed", 42, "fault injector seed; a re-invocation redraws the same faults, so change the seed or raise the -retry-policy budget to get past one")
	flag.StringVar(&cfg.retryPolicy, "retry-policy", "", "store save/load retry policy: none | fixed:<n> | exp[:base[:factor[:cap[:max]]]] (persisted run)")
	flag.Float64Var(&cfg.replanThreshold, "replan-threshold", 0, "hysteresis ratio of effective vs planned checkpoint cost that triggers online replanning (> 1 enables; persisted run)")
	flag.StringVar(&cfg.quota, "quota", "", "per-tenant retained-checkpoint quota, e.g. ckpts:4, bytes:8192 or ckpts:4,bytes:8192 (persisted run; per-process accounting)")
	flag.IntVar(&cfg.tenants, "tenants", 1, "run this many concurrent tenants (<run-id>-t<i>) against one shared store stack (persisted run)")
	flag.StringVar(&cfg.secondaryDir, "secondary-dir", "", "failover checkpoint store directory (persisted run)")
	flag.Float64Var(&cfg.faultLatency, "fault-latency", 0, "mean injected store latency per operation (with -faults)")
	flag.StringVar(&cfg.tracePath, "trace", "", "drive failures from a recorded FTA-style CSV log instead of a seeded law (persisted run only)")
	flag.BoolVar(&cfg.planFromTelemetry, "plan-from-telemetry", false, "probe the store before planning and re-solve the placement with the effective checkpoint cost (requires -dir)")
	flag.Float64Var(&cfg.netLatency, "net-latency", 0, "simulated network base latency per store operation (enables the networked store)")
	flag.Float64Var(&cfg.netJitter, "net-jitter", 0, "mean of the Exp-distributed latency jitter (networked)")
	flag.Float64Var(&cfg.netLoss, "net-loss", 0, "message loss probability per delivery (networked)")
	flag.Float64Var(&cfg.netTimeout, "net-timeout", 0, "per-operation remote timeout; 0 picks 8x(latency+jitter) (networked)")
	flag.Uint64Var(&cfg.netSeed, "net-seed", 7, "network simulation seed (networked)")
	flag.StringVar(&cfg.partition, "partition", "", "partition windows isolating store endpoint s0, e.g. 10:25 or 10:25,40:50 in virtual time (networked)")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replicate checkpoints across this many networked stores (endpoints s0..s<n-1>, directories <dir>/r<i>)")
	flag.IntVar(&cfg.writeQuorum, "write-quorum", 0, "write quorum W for -replicas > 1; 0 picks the majority")
	flag.Float64Var(&cfg.lease, "lease", 0, "epoch-fenced write lease TTL in virtual time: the executor acquires a monotonically increasing epoch before writing, and stale-epoch (zombie) writes fail with ErrFenced (persisted run)")
	flag.StringVar(&cfg.holder, "holder", "", "lease holder identity (with -lease; default \"exec\")")
	flag.BoolVar(&cfg.takeover, "takeover", false, "acquire the lease even while another holder's lease is live — fences the old holder (with -lease)")
	flag.BoolVar(&cfg.contend, "contend", false, "two-executor fencing drill: run an uncontended reference, kill executor a, let b take over, prove the woken zombie is fenced and the survivor journal is bit-identical (requires -lease)")
	flag.BoolVar(&cfg.syncMode, "sync", false, "maintenance: run one anti-entropy pass converging every replica of -run-id, then exit (requires -dir and -replicas >= 2; no -workflow needed)")
	flag.BoolVar(&cfg.scrub, "scrub", false, "maintenance: walk every (run, seq) key, repair CRC-corrupt replicas from a clean quorum, fail loudly when none exists (requires -dir and -replicas >= 2; no -workflow needed)")
	flag.IntVar(&cfg.syncEvery, "sync-every", 0, "run an anti-entropy pass after every k-th committed segment and at completion (persisted run; with -replicas >= 2)")
	flag.Parse()
	if cfg.wfPath == "" && !cfg.maintenance() {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "chkptexec: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	if cfg.replicas < 1 {
		return fmt.Errorf("-replicas %d: want at least 1", cfg.replicas)
	}
	if cfg.maintenance() {
		return runMaintenance(cfg, out)
	}
	f, err := os.Open(cfg.wfPath)
	if err != nil {
		return err
	}
	g, err := dag.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	m, err := expectation.NewModel(cfg.lambda, cfg.downtime)
	if err != nil {
		return err
	}
	if cfg.dir == "" {
		switch {
		case cfg.retryPolicy != "" || cfg.replanThreshold != 0 || cfg.quota != "" ||
			cfg.secondaryDir != "" || cfg.tenants > 1 || cfg.syncEvery != 0:
			return fmt.Errorf("resilience flags (-retry-policy, -replan-threshold, -quota, -tenants, -secondary-dir, -sync-every) require a persisted run: set -dir")
		case cfg.networked():
			return fmt.Errorf("network flags (-net-latency, -net-jitter, -net-loss, -partition, -replicas, -write-quorum) require a persisted run: set -dir")
		case cfg.tracePath != "":
			return fmt.Errorf("-trace replays one recorded platform log through one run: set -dir")
		case cfg.planFromTelemetry:
			return fmt.Errorf("-plan-from-telemetry probes the persisted store stack: set -dir")
		case cfg.lease > 0 || cfg.contend:
			return fmt.Errorf("-lease/-contend fence writes to a persisted store: set -dir")
		}
	}
	// A persisted run's declaration is checked before the plan is
	// solved, so a bad store or resilience flag fails at once, not
	// after a long solve.
	var spec exec.RunSpec
	if cfg.dir != "" {
		if spec, err = cfg.runSpec(true); err == nil {
			err = spec.Validate()
		}
		if err != nil {
			return err
		}
	}
	overhead := 0.0
	if cfg.planFromTelemetry {
		probe, err := cfg.runSpec(false)
		if err != nil {
			return err
		}
		_, st, err := probe.Boot()
		if err != nil {
			return err
		}
		res := exec.ProbeStore(st.Store, "telemetry-probe", 16)
		fmt.Fprintf(out, "%s\n", res)
		overhead = res.Estimate
	}
	w, replanner, desc, err := buildWorkload(g, m, cfg, overhead)
	if err != nil {
		return err
	}
	planned := w.Planned(m)
	fmt.Fprintf(out, "plan: %s — %d tasks, %d segments, planned E[makespan] %.4f\n",
		desc, w.Len(), w.Segments(), planned)

	if cfg.dir == "" {
		return runCampaign(w, m, planned, cfg, out)
	}
	plan := exec.Plan{Workload: w, Model: m, Replanner: replanner}
	if cfg.contend {
		if cfg.tenants > 1 || cfg.tracePath != "" {
			return fmt.Errorf("-contend drives one contended run: drop -tenants/-trace")
		}
		if cfg.quota != "" {
			// The drill's four processes share one run, and a quota
			// ledger lives for one process only.
			return fmt.Errorf("-contend spans several processes while -quota meters one: drop -quota")
		}
		return runContend(plan, planned, cfg, out)
	}
	if cfg.tenants > 1 && cfg.tracePath != "" {
		return fmt.Errorf("-trace records one platform's failures: it cannot drive %d concurrent tenants", cfg.tenants)
	}
	if cfg.tenants > 1 {
		return runTenants(plan, spec, planned, cfg, out)
	}
	return runPersisted(plan, spec, planned, cfg, out)
}

// runSpec maps the flags onto the persisted run's RunSpec: one file
// store per replica (directory <dir>/r<i> when replicated) plus the
// layers the flags ask for. Only a metered spec carries the -quota
// budget; the telemetry probe and the maintenance passes run unmetered,
// and the contend drill refuses -quota.
func (c config) runSpec(metered bool) (exec.RunSpec, error) {
	layout := &exec.StoreLayout{
		Replicas: c.replicas, W: c.writeQuorum, Dir: c.dir, Timeout: c.netTimeout,
		Secondary: c.secondaryDir != "", SecondaryDir: c.secondaryDir,
	}
	if metered && c.quota != "" {
		q, err := parseQuota(c.quota)
		if err != nil {
			return exec.RunSpec{}, err
		}
		layout.Quota = &q
	}
	if c.faults {
		layout.Faults = &store.FaultPlan{
			Seed: c.faultSeed, WriteFail: 0.1, TornWrite: 0.1, LoseOld: 0.2, ReadFail: 0.1,
			MeanLatency: c.faultLatency,
		}
		if layout.Quota != nil {
			// Silent old-checkpoint loss would desync the quota
			// ledger's retained accounting from the store.
			layout.Faults.LoseOld = 0
		}
	}
	if c.networked() {
		wins, err := parsePartitions(c.partition)
		if err != nil {
			return exec.RunSpec{}, err
		}
		layout.Net = &netsim.Config{
			Seed: c.netSeed, Latency: c.netLatency, Jitter: c.netJitter,
			Loss: c.netLoss, Partitions: wins,
		}
	}
	if c.lease > 0 {
		layout.Lease = &store.LeaseConfig{Holder: c.holder, TTL: c.lease, Takeover: c.takeover}
	}
	pol, err := parseRetryPolicy(c.retryPolicy)
	if err != nil {
		return exec.RunSpec{}, err
	}
	spec := exec.RunSpec{
		RunID: c.runID, Seed: c.seed, Salt: 1, Store: layout,
		RetryPolicy: pol, ReplanRatio: c.replanThreshold, SyncEvery: c.syncEvery,
		CrashAfterEvents: c.crashEvents, CrashAfterSaves: c.crashSaves,
	}
	return spec, nil
}

// loadTrace reads the -trace log into a replayable failure source.
func loadTrace(path string) (*exec.TraceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("reading trace %s: %w", path, err)
	}
	gaps := tr.PlatformGaps()
	if len(gaps) == 0 {
		return nil, fmt.Errorf("trace %s holds fewer than two events: no failure gaps to replay", path)
	}
	rate := 0.0
	if mtbf := tr.MTBF(); mtbf > 0 {
		rate = 1 / mtbf
	}
	return exec.NewTraceSource(gaps, rate), nil
}

// buildWorkload compiles the workflow into an executable workload plus
// the matching online replanner: chains via the strategy flag and the
// suffix chain DP, general DAGs via topological linearization plus the
// exact placement DP under the cost model flag. A positive overhead is
// the plan-time telemetry estimate: the placement is re-solved with
// every checkpoint cost inflated by it (the whole-plan analog of the
// executor's online suffix replanning).
func buildWorkload(g *dag.Graph, m expectation.Model, cfg config, overhead float64) (*exec.Workload, exec.Replanner, string, error) {
	if _, isChain := g.IsLinearChain(); isChain {
		cp, _, err := core.NewChainProblem(g, m, 0)
		if err != nil {
			return nil, nil, "", err
		}
		ck, err := core.ChainStrategy(cp, cfg.strategy, m.Lambda)
		if err != nil {
			return nil, nil, "", err
		}
		rp := exec.ChainReplanner{CP: cp}
		desc := "chain/" + cfg.strategy
		if overhead > 0 {
			segs, err := rp.Replan(0, overhead)
			if err != nil {
				return nil, nil, "", err
			}
			ck = checkpointsFromSegments(cp.Len(), segs)
			desc = "chain/telemetry"
		}
		w, err := exec.NewChainWorkload(cp, ck)
		return w, rp, desc, err
	}
	var cm core.CostModel
	switch cfg.costmodel {
	case "last-task":
		cm = core.LastTaskCosts{}
	case "live-set":
		cm = core.LiveSetCosts{}
	default:
		return nil, nil, "", fmt.Errorf("unknown cost model %q (want last-task | live-set)", cfg.costmodel)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, nil, "", err
	}
	sol, err := core.SolveOrderDP(g, order, m, cm)
	if err != nil {
		return nil, nil, "", err
	}
	rp := exec.OrderReplanner{G: g, Order: order, M: m, CM: cm}
	plan := sol.Plan()
	desc := "dag/" + cm.Name()
	if overhead > 0 {
		segs, err := rp.Replan(0, overhead)
		if err != nil {
			return nil, nil, "", err
		}
		plan.CheckpointAfter = checkpointsFromSegments(len(plan.Order), segs)
		desc = "dag/telemetry"
	}
	w, err := exec.NewDAGWorkload(g, plan, cm)
	return w, rp, desc, err
}

// checkpointsFromSegments converts a replanned segment cover back into
// the positional checkpoint vector (each segment ends at a checkpoint).
func checkpointsFromSegments(n int, segs []core.Segment) []bool {
	ck := make([]bool, n)
	for _, s := range segs {
		ck[s.End] = true
	}
	return ck
}

// parseRetryPolicy is the -retry-policy grammar.
var parseRetryPolicy = exec.ParseRetryPolicy

// parseQuota resolves the -quota spelling into a per-tenant budget.
func parseQuota(spec string) (store.Quota, error) {
	var q store.Quota
	if spec == "" {
		return q, nil
	}
	for _, part := range strings.Split(spec, ",") {
		switch {
		case strings.HasPrefix(part, "ckpts:"):
			n, err := strconv.Atoi(part[len("ckpts:"):])
			if err != nil || n <= 0 {
				return q, fmt.Errorf("bad quota %q: want ckpts:<positive n>", part)
			}
			q.MaxCheckpoints = n
		case strings.HasPrefix(part, "bytes:"):
			n, err := strconv.ParseUint(part[len("bytes:"):], 10, 64)
			if err != nil || n == 0 {
				return q, fmt.Errorf("bad quota %q: want bytes:<positive n>", part)
			}
			q.MaxBytes = n
		default:
			return q, fmt.Errorf("bad quota %q (want ckpts:<n>, bytes:<n> or both, comma-separated)", part)
		}
	}
	return q, nil
}

// runCampaign executes the plan cfg.runs times and prints realized vs
// planned.
func runCampaign(w *exec.Workload, m expectation.Model, planned float64, cfg config, out io.Writer) error {
	res, err := exec.Campaign(w, failure.Exponential{Lambda: m.Lambda}, exec.CampaignOptions{
		Runs: cfg.runs, Seed: cfg.seed, Downtime: m.Downtime,
	})
	if err != nil {
		return err
	}
	realized := res.Makespan.Mean()
	ci := res.Makespan.CI(0.99)
	fmt.Fprintf(out, "campaign: %d runs, realized %.4f ± %.4f (99%% CI), mean failures %.2f\n",
		res.Runs, realized, ci, res.Failures.Mean())
	fmt.Fprintf(out, "planned vs realized: |Δ| = %.4f, within CI: %v\n",
		math.Abs(realized-planned), math.Abs(realized-planned) <= ci)
	return nil
}

// parsePartitions resolves the -partition spelling into scheduled
// windows isolating store endpoint s0.
func parsePartitions(spec string) ([]netsim.Window, error) {
	if spec == "" {
		return nil, nil
	}
	var wins []netsim.Window
	for _, part := range strings.Split(spec, ",") {
		lo, hi, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad partition window %q (want start:end)", part)
		}
		start, err1 := strconv.ParseFloat(lo, 64)
		end, err2 := strconv.ParseFloat(hi, 64)
		if err1 != nil || err2 != nil || math.IsNaN(start) || math.IsNaN(end) || start < 0 || end <= start {
			return nil, fmt.Errorf("bad partition window %q (want 0 <= start < end)", part)
		}
		wins = append(wins, netsim.Window{Start: start, End: end, Isolated: []string{"s0"}})
	}
	return wins, nil
}

// reportResult prints one invocation's outcome and its store path's
// summary; prefix labels the tenant in multi-tenant mode.
func reportResult(out io.Writer, prefix string, spec exec.RunSpec, planned float64, res *exec.Result, err error) error {
	if res != nil && res.Resumed {
		fmt.Fprintf(out, "%sresumed from checkpoint %d (%d journal events restored)\n",
			prefix, res.ResumeSeq, res.RestoredEvents)
	}
	if res != nil && res.Epoch > 0 {
		fmt.Fprintf(out, "%slease: holding epoch %d\n", prefix, res.Epoch)
	}
	if errors.Is(err, exec.ErrCrashed) {
		fmt.Fprintf(out, "%scrashed as requested: %v\n", prefix, err)
		fmt.Fprintf(out, "%sstate persists in %s — re-run without the crash flag to resume\n", prefix, spec.Store.Dir)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%scompleted: makespan %.4f (planned %.4f), %d failures, %d checkpoints, %d saves this invocation\n",
		prefix, res.Makespan, planned, res.Failures, res.Checkpoints, res.Saves)
	fmt.Fprintf(out, "%sjournal: %d events, hash %016x\n", prefix, len(res.Journal), res.Journal.Hash())
	fmt.Fprintf(out, "%sresilience: policy %s, replans %d, save give-ups %d, level %s, store overhead %.4f, max rewind exposure %.4f\n",
		prefix, spec.RetryPolicy.Name(), res.Replans, res.GiveUps, res.Level, res.StoreOverhead, res.MaxRewind)
	if res.Syncs > 0 {
		fmt.Fprintf(out, "%santi-entropy: %d passes, %d replica copies, %d unconverged\n",
			prefix, res.Syncs, res.SyncCopied, res.SyncFailures)
	}
	return nil
}

// runPersisted executes once against a crash-durable file store,
// resuming from whatever a previous invocation left there.
func runPersisted(plan exec.Plan, spec exec.RunSpec, planned float64, cfg config, out io.Writer) error {
	var ts *exec.TraceSource
	if cfg.tracePath != "" {
		var err error
		if ts, err = loadTrace(cfg.tracePath); err != nil {
			return err
		}
		plan.Source = ts
	}
	res, err := spec.Run(plan)
	if ts != nil && ts.Exhausted() {
		// The recorded log ran out of failure gaps mid-run: everything
		// past the last recorded event executed failure-free, which the
		// trace cannot justify. Refuse to pass that off as a replay.
		return fmt.Errorf("trace %s exhausted mid-run: the execution outlived the recorded log — provide a longer trace or lower the workload", cfg.tracePath)
	}
	return reportResult(out, "", spec, planned, res, err)
}

// runTenants executes cfg.tenants concurrent persisted runs, one per
// tenant, against one shared store stack (and one shared quota ledger).
// Crash flags apply to tenant 0 only; every tenant resumes its own run
// on the next invocation.
func runTenants(plan exec.Plan, spec exec.RunSpec, planned float64, cfg config, out io.Writer) error {
	_, st, err := spec.Boot()
	if err != nil {
		return err
	}
	results, errs := spec.ExecuteTenants(plan, st, cfg.tenants)
	for i := 0; i < cfg.tenants; i++ {
		prefix := fmt.Sprintf("tenant %d: ", i)
		if err := reportResult(out, prefix, spec, planned, results[i], errs[i]); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
	}
	return nil
}

// runMaintenance serves -sync and -scrub: no workflow, no execution —
// just deterministic repair passes over the persisted replicated store.
// With both flags set the scrub runs first (heal rot from clean
// quorums), then the sync (fill missing/stale copies), so one
// invocation leaves every reachable replica clean AND converged.
func runMaintenance(cfg config, out io.Writer) error {
	if cfg.dir == "" {
		return fmt.Errorf("-sync/-scrub repair a persisted replicated store: set -dir")
	}
	if cfg.replicas < 2 {
		return fmt.Errorf("-sync/-scrub compare replicas: set -replicas >= 2")
	}
	if cfg.contend || cfg.tenants > 1 {
		return fmt.Errorf("-sync/-scrub are maintenance passes: drop -contend/-tenants")
	}
	spec, err := cfg.runSpec(false)
	if err != nil {
		return err
	}
	_, st, err := exec.RunSpec{Store: spec.Store}.Boot()
	if err != nil {
		return err
	}
	// Two or more replicas build a quorum, which scrubs and syncs.
	if cfg.scrub {
		sc, _ := store.FindScrubber(st.Store)
		rep, err := sc.ScrubRun(cfg.runID)
		fmt.Fprintf(out, "scrub %s: %d seqs, %d replica copies checked, %d corrupt, %d repaired, %d unrepairable, %d repair writes failed\n",
			cfg.runID, rep.Seqs, rep.Checked, rep.Corrupt, rep.Repaired, rep.Unrepairable, rep.CopyFailures)
		if err != nil {
			return err
		}
	}
	if cfg.syncMode {
		sy, _ := store.FindSyncer(st.Store)
		rep, err := sy.SyncRun(cfg.runID)
		fmt.Fprintf(out, "sync %s: %d seqs, %d replica copies written, %d verified in sync, %d load failures, %d copy failures, %d replicas unlisted — converged %v\n",
			cfg.runID, rep.Seqs, rep.Copied, rep.InSync, rep.LoadFailures, rep.CopyFailures, rep.Unlisted, rep.Converged())
		if err != nil {
			return err
		}
	}
	return nil
}

// runContend drives the two-executor fencing drill (exec.FencingDrill)
// end to end inside -dir: an uncontended leased reference run under
// <dir>/ref, then the contended run under <dir>/main, where executor a
// is killed at the -crash-events point (40 by default). The drill fails
// unless the survivor's journal is bit-identical to the reference.
func runContend(plan exec.Plan, planned float64, cfg config, out io.Writer) error {
	if cfg.lease <= 0 {
		return fmt.Errorf("-contend is a fencing drill: set -lease <ttl>")
	}
	refCfg := cfg
	refCfg.dir, refCfg.holder, refCfg.crashEvents, refCfg.crashSaves = filepath.Join(cfg.dir, "ref"), "ref", 0, 0
	ref, err := refCfg.runSpec(false)
	if err != nil {
		return err
	}
	refRes, err := ref.Run(plan)
	if err != nil {
		return fmt.Errorf("contend reference run: %w", err)
	}
	fmt.Fprintf(out, "contend: reference (epoch %d) journal: %d events, hash %016x\n",
		refRes.Epoch, len(refRes.Journal), refRes.Journal.Hash())

	mainCfg := cfg
	mainCfg.dir = filepath.Join(cfg.dir, "main")
	if mainCfg.crashEvents <= 0 {
		mainCfg.crashEvents = 40
	}
	spec, err := mainCfg.runSpec(false)
	if err != nil {
		return err
	}
	rep, err := exec.FencingDrill(plan, spec, refRes.Journal, false)
	if err != nil {
		return fmt.Errorf("contend: %w", err)
	}
	fmt.Fprintf(out, "contend: executor a (epoch %d) killed after %d journal events\n", rep.A.Epoch, len(rep.A.Journal))
	if rep.BCompleted {
		fmt.Fprintf(out, "contend: executor b (epoch %d) took the run over and completed\n", rep.B.Epoch)
	} else {
		fmt.Fprintf(out, "contend: executor b (epoch %d) took the run over, killed after one save\n", rep.B.Epoch)
	}
	if rep.Zombie != nil {
		fmt.Fprintf(out, "contend: zombie a fenced: %v\n", rep.Zombie)
	} else {
		fmt.Fprintf(out, "contend: zombie a had no writes left (journal already complete)\n")
	}
	fmt.Fprintf(out, "contend: survivor (epoch %d) journal: %d events, hash %016x\n",
		rep.Survivor.Epoch, len(rep.Survivor.Journal), rep.Survivor.Journal.Hash())
	fmt.Fprintf(out, "contend: survivor journal identical to uncontended reference: %v\n", rep.Identical)
	if !rep.Identical {
		return fmt.Errorf("contend: survivor journal diverged from the uncontended reference")
	}
	return nil
}
