// Command chkptsim Monte-Carlo-simulates a workflow's checkpoint plan
// under a chosen failure law and compares the simulated makespan with the
// analytical expectation where one exists (Exponential failures,
// Proposition 1).
//
// Usage:
//
//	chkptsim -workflow wf.json -lambda 0.01 -downtime 1 -runs 100000
//	chkptsim -workflow wf.json -law weibull -shape 0.7 -mtbf 100 -procs 16
//
// Beyond the single-plan simulation, -candidates switches to a
// common-random-number comparator campaign over several checkpoint
// strategies, run through the sharded deterministic pipeline: results
// are bit-identical for any -shards value, shards can be computed by
// separate invocations against a shared -resume directory and merged
// with -merge, and a killed invocation resumes from its spilled traces.
//
//	chkptsim -workflow wf.json -candidates dp,daly,never -runs 1e6 -shards 16
//	chkptsim -workflow wf.json -candidates dp,daly -shards 4 -shard 2 -resume dir/
//	chkptsim -resume dir/ -merge
//	chkptsim -workflow wf.json -candidates dp,every:3 -ci-width 0.05 -runs 200000
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/sim"
)

// config carries every flag; run is pure in it so tests drive the CLI
// without exec.
type config struct {
	wfPath   string
	law      string
	lambda   float64
	mtbf     float64
	shape    float64
	procs    int
	downtime float64
	runs     int
	seed     uint64
	planPath string

	// Sharded-campaign extensions.
	candidates string
	shards     int
	shard      int
	block      int
	resumeDir  string
	mergeOnly  bool
	ciWidth    float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.wfPath, "workflow", "", "workflow JSON file (required unless -merge; must be a linear chain)")
	flag.StringVar(&cfg.law, "law", "exponential", "failure law: exponential | weibull | lognormal")
	flag.Float64Var(&cfg.lambda, "lambda", 0.01, "platform failure rate (exponential law)")
	flag.Float64Var(&cfg.mtbf, "mtbf", 0, "per-processor MTBF (weibull/lognormal; overrides -lambda)")
	flag.Float64Var(&cfg.shape, "shape", 0.7, "weibull shape / lognormal sigma")
	flag.IntVar(&cfg.procs, "procs", 1, "processor count for superposed non-exponential laws")
	flag.Float64Var(&cfg.downtime, "downtime", 0, "downtime D after each failure")
	flag.IntVar(&cfg.runs, "runs", 50000, "Monte-Carlo runs (per-candidate cap with -ci-width)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.StringVar(&cfg.planPath, "plan", "", "replay a plan JSON (from chkptplan -out) instead of recomputing the DP")
	flag.StringVar(&cfg.candidates, "candidates", "", "comma-separated CRN campaign candidates: dp | always | never | daly | young | every:k (first is the baseline)")
	flag.IntVar(&cfg.shards, "shards", 1, "split the campaign into N deterministic shards; merged results are bit-identical for any N")
	flag.IntVar(&cfg.shard, "shard", -1, "run only this shard index (needs -resume; combine later with -merge)")
	flag.IntVar(&cfg.block, "block", 0, "replications per deterministic fold block (0 = auto); part of the campaign fingerprint")
	flag.StringVar(&cfg.resumeDir, "resume", "", "campaign directory: spill traces and shard results there, resume bit-identically after a kill")
	flag.BoolVar(&cfg.mergeOnly, "merge", false, "merge the finished shards in -resume and print, without simulating")
	flag.Float64Var(&cfg.ciWidth, "ci-width", 0, "adaptive stopping: sample until every paired-delta 99% CI is narrower than this or excludes zero")
	flag.Parse()
	if cfg.wfPath == "" && !cfg.mergeOnly {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "chkptsim: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.mergeOnly {
		if cfg.resumeDir == "" {
			return fmt.Errorf("-merge reads shard results from a campaign directory: pass -resume <dir>")
		}
		return mergeCampaign(cfg.resumeDir)
	}

	f, err := os.Open(cfg.wfPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := dag.Read(f)
	if err != nil {
		return err
	}

	// The analytical model needs an Exponential rate; for other laws it
	// is the mean-matched rate, used only for planning.
	planLambda := cfg.lambda
	if cfg.mtbf > 0 {
		planLambda = float64(cfg.procs) / cfg.mtbf
	}
	m, err := expectation.NewModel(planLambda, cfg.downtime)
	if err != nil {
		return err
	}

	var (
		order           []int
		checkpointAfter []bool
	)
	if cfg.planPath != "" {
		pf, err := os.Open(cfg.planPath)
		if err != nil {
			return err
		}
		plan, err := core.ReadPlan(pf)
		pf.Close()
		if err != nil {
			return err
		}
		if err := plan.Validate(g); err != nil {
			return fmt.Errorf("plan does not fit workflow: %w", err)
		}
		order = plan.Order
		checkpointAfter = plan.CheckpointAfter
	} else {
		var ok bool
		order, ok = g.IsLinearChain()
		if !ok {
			return fmt.Errorf("workflow is not a linear chain: compute a plan with chkptplan -out and pass it via -plan")
		}
	}
	cp, err := core.NewChainProblemOrdered(g, order, m, 0)
	if err != nil {
		return err
	}
	var res core.ChainResult
	if checkpointAfter == nil {
		res, err = core.SolveChainDP(cp)
		if err != nil {
			return err
		}
	} else {
		e, err := cp.Makespan(checkpointAfter)
		if err != nil {
			return err
		}
		res = core.ChainResult{Expected: e, CheckpointAfter: checkpointAfter}
	}
	fmt.Printf("plan: %d checkpoints, analytical E[T] = %.6g (exponential model, λ=%g)\n",
		len(res.Positions()), res.Expected, planLambda)

	var factory sim.ProcessFactory
	switch cfg.law {
	case "exponential":
		factory = sim.ExponentialFactory(planLambda)
	case "weibull":
		if cfg.mtbf <= 0 {
			return fmt.Errorf("weibull law needs -mtbf")
		}
		scale := cfg.mtbf / math.Gamma(1+1/cfg.shape)
		w, err := failure.NewWeibull(cfg.shape, scale)
		if err != nil {
			return err
		}
		factory = sim.SuperposedFactory(w, cfg.procs, failure.RejuvenateFailedOnly)
		fmt.Printf("simulating %s per processor × %d processors\n", w, cfg.procs)
	case "lognormal":
		if cfg.mtbf <= 0 {
			return fmt.Errorf("lognormal law needs -mtbf")
		}
		mu := math.Log(cfg.mtbf) - cfg.shape*cfg.shape/2
		l, err := failure.NewLogNormal(mu, cfg.shape)
		if err != nil {
			return err
		}
		factory = sim.SuperposedFactory(l, cfg.procs, failure.RejuvenateFailedOnly)
		fmt.Printf("simulating %s per processor × %d processors\n", l, cfg.procs)
	default:
		return fmt.Errorf("unknown law %q", cfg.law)
	}

	if cfg.candidates != "" || cfg.shards > 1 || cfg.resumeDir != "" ||
		cfg.shard >= 0 || cfg.ciWidth > 0 || cfg.block > 0 {
		return runCampaign(cfg, cp, res, factory, planLambda)
	}

	mc, err := sim.MonteCarloPlan(cp, res.CheckpointAfter, factory, sim.Options{}, cfg.runs, rng.New(cfg.seed))
	if err != nil {
		return err
	}
	fmt.Printf("\nsimulated over %d runs:\n", mc.Runs)
	fmt.Printf("  makespan: mean %.6g  sd %.4g  99%%CI ±%.4g  min %.6g  max %.6g\n",
		mc.Makespan.Mean(), mc.Makespan.StdDev(), mc.Makespan.CI(0.99), mc.Makespan.Min(), mc.Makespan.Max())
	fmt.Printf("  failures per run: mean %.4g  max %.0f\n", mc.Failures.Mean(), mc.Failures.Max())
	fmt.Printf("  time split: useful %.4g  lost %.4g  downtime %.4g  recovery %.4g\n",
		mc.Useful.Mean(), mc.Lost.Mean(), mc.Downtime.Mean(), mc.RecoveryTime.Mean())
	if cfg.law == "exponential" {
		rel := math.Abs(mc.Makespan.Mean()-res.Expected) / res.Expected
		fmt.Printf("\nanalytical vs simulated: %.6g vs %.6g (relative gap %.2e; Prop. 1 is exact, gap is Monte-Carlo noise)\n",
			res.Expected, mc.Makespan.Mean(), rel)
	}
	return nil
}

// runCampaign is the sharded CRN path: bit-identical merges across any
// shard split, resumable against a campaign directory, optionally with
// adaptive sample-until-CI-width stopping.
func runCampaign(cfg config, cp *core.ChainProblem, res core.ChainResult, factory sim.ProcessFactory, planLambda float64) error {
	names, plans, err := buildCandidates(cfg, cp, res, planLambda)
	if err != nil {
		return err
	}
	so := sim.ShardOptions{
		Options:   sim.Options{Downtime: cp.Model.Downtime},
		Seed:      cfg.seed,
		Runs:      cfg.runs,
		Shards:    cfg.shards,
		BlockSize: cfg.block,
		SpillDir:  cfg.resumeDir,
	}

	if cfg.ciWidth > 0 {
		if cfg.resumeDir != "" || cfg.shard >= 0 {
			return fmt.Errorf("-ci-width campaigns re-plan every round and cannot spill or split across invocations; drop -resume/-shard")
		}
		so.SpillDir = ""
		ares, err := sim.CampaignPlansAdaptive(plans, factory, so, sim.AdaptiveOptions{
			TargetWidth: cfg.ciWidth,
			MaxRuns:     cfg.runs,
		})
		if err != nil {
			return err
		}
		printAdaptive(names, ares, cfg.ciWidth)
		return nil
	}

	if cfg.resumeDir != "" {
		// Pin the fingerprint before any work: a directory holding a
		// different campaign fails here, loudly, not after hours of
		// simulation.
		fp, err := so.Fingerprint(plans)
		if err != nil {
			return err
		}
		if err := sim.WriteCampaignManifest(cfg.resumeDir, fp); err != nil {
			return err
		}
	}

	if cfg.shard >= 0 {
		if cfg.resumeDir == "" {
			return fmt.Errorf("-shard runs one partition of a multi-invocation campaign and needs -resume <dir> to leave its result in")
		}
		sr, err := sim.CampaignPlansShard(plans, factory, so, cfg.shard)
		if err != nil {
			return err
		}
		fmt.Printf("shard %d/%d done: %d blocks under fingerprint\n  %s\nmerge with -merge -resume %s once every shard has run\n",
			cfg.shard, so.Shards, len(sr.Blocks), sr.Fingerprint, cfg.resumeDir)
		return nil
	}

	out, err := sim.CampaignPlansSharded(plans, factory, so)
	if err != nil {
		return err
	}
	printCampaign(names, out)
	return nil
}

// mergeCampaign folds the shard results already present in dir.
func mergeCampaign(dir string) error {
	fp, err := sim.ReadCampaignManifest(dir)
	if err != nil {
		return fmt.Errorf("reading campaign manifest in %s: %w", dir, err)
	}
	parts, err := sim.LoadCampaignDir(dir)
	if err != nil {
		return err
	}
	out, err := sim.MergeShards(parts)
	if err != nil {
		return err
	}
	fmt.Printf("merged campaign\n  %s\n", fp)
	names := make([]string, fp.Candidates)
	for i := range names {
		names[i] = fmt.Sprintf("cand%d", i)
	}
	printCampaign(names, out)
	return nil
}

// buildCandidates turns the -candidates spec into plans over the chain.
// The candidate list is part of the campaign's workload fingerprint, so
// shard invocations that disagree on it refuse to merge.
func buildCandidates(cfg config, cp *core.ChainProblem, res core.ChainResult, planLambda float64) ([]string, [][]core.Segment, error) {
	spec := cfg.candidates
	if spec == "" {
		spec = "dp"
	}
	var names []string
	var plans [][]core.Segment
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		ck := res.CheckpointAfter
		if name != "dp" {
			var err error
			ck, err = core.ChainStrategy(cp, name, planLambda)
			if errors.Is(err, core.ErrUnknownStrategy) {
				return nil, nil, fmt.Errorf("unknown candidate %q (want dp, always, never, daly, young or every:k)", name)
			}
			if err != nil {
				return nil, nil, err
			}
		}
		segs, err := cp.Segments(ck)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, name)
		plans = append(plans, segs)
	}
	return names, plans, nil
}

func printCampaign(names []string, out sim.CampaignResult) {
	fmt.Printf("\nCRN campaign: %d candidates × %d runs\n", len(out.Results), out.Runs)
	for i, r := range out.Results {
		fmt.Printf("  %-10s mean %.6g  sd %.4g  99%%CI ±%.4g", names[i], r.Makespan.Mean(), r.Makespan.StdDev(), r.Makespan.CI(0.99))
		if out.Digests != nil {
			d := out.Digests[i]
			fmt.Printf("  p50 %.6g  p90 %.6g  p99 %.6g", d.Quantile(0.5), d.Quantile(0.9), d.Quantile(0.99))
		}
		fmt.Println()
	}
	for i := 1; i < len(out.Delta); i++ {
		fmt.Printf("  Δ(%s − %s) = %.6g ± %.4g (99%% paired CI)\n",
			names[i], names[0], out.Delta[i].Mean(), out.Delta[i].CI(0.99))
	}
}

func printAdaptive(names []string, out sim.AdaptiveResult, target float64) {
	fmt.Printf("\nadaptive CRN campaign: %d rounds, %d replications spent (fixed design at the same width: %d → %.0f%%)\n",
		out.Rounds, out.Spent, out.FixedSpent, 100*float64(out.Spent)/float64(out.FixedSpent))
	for i := range out.Results {
		fmt.Printf("  %-10s runs %-8d mean %.6g", names[i], out.RunsPerCandidate[i], out.Results[i].Makespan.Mean())
		if i > 0 {
			fmt.Printf("  Δ=%.6g ±%.4g  %s", out.Delta[i].Mean(), out.Widths[i], out.Decision[i])
		}
		fmt.Println()
	}
	fmt.Printf("  target half-width %.4g at 99%% confidence\n", target)
}
