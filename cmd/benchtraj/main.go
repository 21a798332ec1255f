// Command benchtraj bootstraps the benchmark trajectory: it runs the
// chain-DP benchmarks programmatically (monotone-matrix arm vs kernel
// fast path vs the dense Algorithm 1 scan, n ∈ {100, 1000, 5000} by
// default) plus the steady-state simulation loop, and writes the
// measurements as JSON. Snapshots of the four trajectories are checked
// in at the repository root (BENCH_chain_dp.json, BENCH_sim.json,
// BENCH_dag.json, BENCH_exec.json), so the repo carries its own perf
// history; the CI bench job regenerates them and diffs fresh results
// against the snapshots, warning on >25% ns/op regressions (see -diff).
//
// It also emits a second trajectory, BENCH_sim.json, for the Monte-Carlo
// backbone: scan-vs-heap superposed-platform campaigns at
// p ∈ {1, 1000, 65536}, common-random-number vs independent comparator
// campaigns, and streaming (P²) vs sort-based quantile estimation.
//
// Usage:
//
//	benchtraj                       # write all four BENCH_*.json trajectories
//	benchtraj -out ./               # output paths may be directories (default filenames inside)
//	benchtraj -out results.json     # choose the chain-DP output path
//	benchtraj -simout sim.json      # choose the sim output path ("" skips it)
//	benchtraj -benchtime 0.2s       # shorter measurement per benchmark
//	benchtraj -sizes 100,1000       # choose chain lengths
//	benchtraj -simprocs 1,1000      # choose platform sizes for scan-vs-heap
//	benchtraj -frontier=false       # skip the large-chain frontier points (n=200k/1M, several seconds)
//	benchtraj -cpuprofile cpu.pprof # capture a CPU profile of the measured code
//	benchtraj -memprofile mem.pprof # write an allocation profile on exit
//	benchtraj -diff old.json new.json  # compare two trajectories, warn on >25% ns/op regressions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/expt"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// Measurement is one benchmark's recorded trajectory point.
type Measurement struct {
	Name        string  `json:"name"`
	N           int     `json:"n,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// States records the lattice solver's peak stored DP states for the
	// BENCH_dag points (0 elsewhere).
	States int64 `json:"states,omitempty"`
}

// Report is the JSON document benchtraj emits.
type Report struct {
	GoVersion string        `json:"go_version"`
	GOARCH    string        `json:"goarch"`
	Unix      int64         `json:"unix_time"`
	Results   []Measurement `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtraj", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("out", "BENCH_chain_dp.json", "output JSON path (a directory keeps the default filename inside it)")
		simOut     = fs.String("simout", "BENCH_sim.json", "Monte-Carlo backbone output JSON path (empty to skip; directories as for -out)")
		dagOut     = fs.String("dagout", "BENCH_dag.json", "DAG lattice-vs-factorial output JSON path (empty to skip; directories as for -out)")
		execOut    = fs.String("execout", "BENCH_exec.json", "crash-safe executor output JSON path (empty to skip; directories as for -out)")
		benchtime  = fs.Duration("benchtime", 500*time.Millisecond, "target measurement time per benchmark")
		sizesFlag  = fs.String("sizes", "100,1000,5000", "comma-separated chain lengths")
		procsFlag  = fs.String("simprocs", "1,1000,65536", "comma-separated platform sizes for scan-vs-heap campaigns")
		dagFlag    = fs.String("dagsizes", "8,12,16,20", "comma-separated in-tree sizes for the lattice trajectory")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the measured benchmarks to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		diffMode   = fs.Bool("diff", false, "compare two trajectory files (old new) instead of benchmarking; warns on >25% ns/op regressions")
		frontier   = fs.Bool("frontier", true, "include the large-chain frontier points (monotone vs kernel at n=200k, monotone at n=1M, MTBF 1000)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diffMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchtraj: -diff needs exactly two trajectory files (old new)")
			return 2
		}
		return diffReports(fs.Arg(0), fs.Arg(1), stderr)
	}
	parseInts := func(flagVal, what string) ([]int, bool) {
		var vals []int
		for _, s := range strings.Split(flagVal, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fmt.Fprintf(stderr, "benchtraj: bad %s %q\n", what, s)
				return nil, false
			}
			vals = append(vals, n)
		}
		return vals, true
	}
	sizes, ok := parseInts(*sizesFlag, "size")
	if !ok {
		return 2
	}
	procs, ok := parseInts(*procsFlag, "platform size")
	if !ok {
		return 2
	}
	dagSizes, ok := parseInts(*dagFlag, "dag size")
	if !ok {
		return 2
	}
	// Output paths may name directories ("-out ./"): keep the default
	// filename inside them, so the checked-in snapshots and CI both use
	// one spelling.
	resolveOut(out, "BENCH_chain_dp.json")
	resolveOut(simOut, "BENCH_sim.json")
	resolveOut(dagOut, "BENCH_dag.json")
	resolveOut(execOut, "BENCH_exec.json")
	// testing.Benchmark sizes its runs from the -test.benchtime flag;
	// register the testing flags and set it to our budget.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintf(stderr, "benchtraj: %v\n", err)
		return 1
	}
	// The memprofile defer is registered first so it runs last (LIFO):
	// its forced GC and profile serialization must not be captured
	// inside the still-active CPU profile.
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "benchtraj: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(stderr, "benchtraj: wrote allocation profile to %s\n", *memProfile)
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "benchtraj: wrote CPU profile to %s\n", *cpuProfile)
		}()
	}
	report, err := measure(sizes, *frontier)
	if err != nil {
		fmt.Fprintf(stderr, "benchtraj: %v\n", err)
		return 1
	}
	if err := writeReport(*out, report, stderr); err != nil {
		fmt.Fprintf(stderr, "benchtraj: %v\n", err)
		return 1
	}
	if *simOut != "" {
		simReport, err := measureSim(procs)
		if err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
		if err := writeReport(*simOut, simReport, stderr); err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
	}
	if *dagOut != "" {
		dagReport, err := measureDag(dagSizes)
		if err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
		if err := writeReport(*dagOut, dagReport, stderr); err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
	}
	if *execOut != "" {
		execReport, err := measureExec()
		if err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
		if err := writeReport(*execOut, execReport, stderr); err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return 1
		}
	}
	return 0
}

// resolveOut rewrites a path flag that names a directory (or ends in a
// separator) to the default filename inside that directory.
func resolveOut(path *string, defaultName string) {
	p := *path
	if p == "" {
		return
	}
	if strings.HasSuffix(p, "/") || strings.HasSuffix(p, string(os.PathSeparator)) {
		*path = filepath.Join(p, defaultName)
		return
	}
	if info, err := os.Stat(p); err == nil && info.IsDir() {
		*path = filepath.Join(p, defaultName)
	}
}

// regressionThreshold is the ns/op ratio beyond which -diff warns: a
// fresh measurement more than 25% slower than the snapshot.
const regressionThreshold = 1.25

// diffReports compares two trajectory files by benchmark name and
// reports ns/op movements. Regressions beyond regressionThreshold are
// emitted as GitHub-annotation warnings (plain lines elsewhere read the
// same); the exit code stays 0 — the trajectory warns, it does not
// gate — with 2 reserved for unreadable inputs.
func diffReports(oldPath, newPath string, stderr io.Writer) int {
	read := func(path string) (*Report, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchtraj: %v\n", err)
			return nil, false
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			fmt.Fprintf(stderr, "benchtraj: %s: %v\n", path, err)
			return nil, false
		}
		return &rep, true
	}
	oldRep, ok := read(oldPath)
	if !ok {
		return 2
	}
	newRep, ok := read(newPath)
	if !ok {
		return 2
	}
	oldByName := make(map[string]Measurement, len(oldRep.Results))
	for _, m := range oldRep.Results {
		oldByName[m.Name] = m
	}
	names := make([]string, 0, len(newRep.Results))
	newByName := make(map[string]Measurement, len(newRep.Results))
	for _, m := range newRep.Results {
		names = append(names, m.Name)
		newByName[m.Name] = m
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		cur := newByName[name]
		prev, ok := oldByName[name]
		if !ok || prev.NsPerOp <= 0 {
			fmt.Fprintf(stderr, "  new    %-36s %12.0f ns/op (no snapshot)\n", name, cur.NsPerOp)
			continue
		}
		ratio := cur.NsPerOp / prev.NsPerOp
		if ratio > regressionThreshold {
			regressions++
			fmt.Fprintf(stderr, "::warning title=benchtraj regression::%s regressed %.2fx (%.0f → %.0f ns/op)\n",
				name, ratio, prev.NsPerOp, cur.NsPerOp)
			continue
		}
		fmt.Fprintf(stderr, "  ok     %-36s %12.0f ns/op (%.2fx vs snapshot)\n", name, cur.NsPerOp, ratio)
	}
	missing := make([]string, 0, len(oldByName))
	for name := range oldByName {
		if _, ok := newByName[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(stderr, "::warning title=benchtraj regression::%s present in snapshot %s but missing from %s\n", name, oldPath, newPath)
		regressions++
	}
	fmt.Fprintf(stderr, "benchtraj: compared %d benchmarks against %s, %d warning(s)\n", len(names), oldPath, regressions)
	return 0
}

// writeReport writes one trajectory document and echoes its measurements.
func writeReport(path string, report *Report, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(report)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	for _, m := range report.Results {
		fmt.Fprintf(stderr, "%-32s %12.0f ns/op %8d allocs/op\n", m.Name, m.NsPerOp, m.AllocsPerOp)
	}
	fmt.Fprintf(stderr, "benchtraj: wrote %d measurements to %s\n", len(report.Results), path)
	return nil
}

func measure(sizes []int, frontier bool) (*Report, error) {
	report := &Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Unix:      time.Now().Unix(),
	}
	record := func(name string, n int, r testing.BenchmarkResult) {
		report.Results = append(report.Results, Measurement{
			Name:        name,
			N:           n,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	for _, n := range sizes {
		g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(1))
		if err != nil {
			return nil, err
		}
		m, err := expectation.NewModel(0.01, 0.5)
		if err != nil {
			return nil, err
		}
		cp, _, err := core.NewChainProblem(g, m, 0)
		if err != nil {
			return nil, err
		}
		// Pre-flight once so a solver error surfaces as an error, not a
		// swallowed benchmark failure. The default-weights chain is
		// quadrangle-certified, so the pinned monotone arm must accept it.
		if _, err := core.SolveChainDPMonotone(cp); err != nil {
			return nil, err
		}
		if _, err := core.SolveChainDPKernel(cp); err != nil {
			return nil, err
		}
		if _, err := core.SolveChainDPDense(cp); err != nil {
			return nil, err
		}
		bench := func(f func() error) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		record(fmt.Sprintf("chain_dp_monotone/n=%d", n), n, bench(func() error {
			_, err := core.SolveChainDPMonotone(cp)
			return err
		}))
		record(fmt.Sprintf("chain_dp_kernel/n=%d", n), n, bench(func() error {
			_, err := core.SolveChainDPKernel(cp)
			return err
		}))
		record(fmt.Sprintf("chain_dp_dense/n=%d", n), n, bench(func() error {
			_, err := core.SolveChainDPDense(cp)
			return err
		}))
	}

	// Frontier points: the workload class E16 sweeps, at platform MTBF
	// 1000 where the kernel scan's pruned look-ahead is longest. These
	// record the monotone arm's headline wins in the trajectory: the
	// ≥20× speedup over the kernel arm at n = 200,000 and the sub-second
	// exact million-task solve.
	if frontier {
		const frontierLambda = 0.001
		m, err := expectation.NewModel(frontierLambda, 0.5)
		if err != nil {
			return nil, err
		}
		frontierChain := func(n int) (*core.ChainProblem, error) {
			g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(1))
			if err != nil {
				return nil, err
			}
			cp, _, err := core.NewChainProblem(g, m, 0)
			if err != nil {
				return nil, err
			}
			return cp, nil
		}
		cp, err := frontierChain(200000)
		if err != nil {
			return nil, err
		}
		if _, err := core.SolveChainDPMonotone(cp); err != nil {
			return nil, err
		}
		record("chain_dp_monotone_frontier/n=200000", 200000, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveChainDPMonotone(cp); err != nil {
					b.Fatal(err)
				}
			}
		}))
		record("chain_dp_kernel_frontier/n=200000", 200000, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveChainDPKernel(cp); err != nil {
					b.Fatal(err)
				}
			}
		}))
		big, err := frontierChain(1000000)
		if err != nil {
			return nil, err
		}
		record("chain_dp_monotone_frontier/n=1000000", 1000000, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveChainDPMonotone(big); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Steady-state simulation loop: the allocs_per_op trajectory pins the
	// allocation-free Monte-Carlo contract (0 expected).
	simRes, err := simSteadyState()
	if err != nil {
		return nil, err
	}
	record("sim_run_steady_state", 0, simRes)
	return report, nil
}

func simSteadyState() (testing.BenchmarkResult, error) {
	g, err := dag.Chain(64, dag.DefaultWeights(), rng.New(5))
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	m, err := expectation.NewModel(0.05, 0.5)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	res, err := core.SolveChainDP(cp)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	segs, err := cp.Segments(res.CheckpointAfter)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	proc := failure.NewExponentialProcess(0.05, rng.New(6))
	opts := sim.Options{Downtime: 0.5}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			proc.Reset()
			if _, err := sim.Run(segs, proc, opts); err != nil {
				b.Fatal(err)
			}
		}
	}), nil
}

// measureSim builds the Monte-Carlo backbone trajectory (BENCH_sim.json):
// scan-vs-heap superposed-platform campaign runs, CRN-vs-independent
// comparator campaigns, and streaming-vs-sort quantile estimation.
func measureSim(procSizes []int) (*Report, error) {
	report := &Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Unix:      time.Now().Unix(),
	}
	record := func(name string, n int, r testing.BenchmarkResult) {
		report.Results = append(report.Results, Measurement{
			Name:        name,
			N:           n,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}

	// Scan vs heap: one op = one campaign run (reset + full simulation of
	// a 512-segment plan) on a platform of p processors with constant
	// platform-level MTBF — the E14 configuration, shared via the expt
	// helpers so the trajectory always measures the workload the
	// experiment reports on. The scan pays two O(p) passes per segment;
	// the heap leaves the O(p) reset as the only platform-size term.
	const platformMTBF = expt.E14PlatformMTBF
	segs := expt.E14Segments()
	opts := sim.Options{Downtime: 0.5}
	benchProcess := func(proc interface {
		failure.Process
		failure.Resettable
	}) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				proc.Reset()
				if _, err := sim.Run(segs, proc, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, p := range procSizes {
		e, err := failure.NewExponential(1 / (platformMTBF * float64(p)))
		if err != nil {
			return nil, err
		}
		scan, err := failure.NewScanProcess(e, p, failure.RejuvenateFailedOnly, rng.New(7))
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("superposed_campaign_scan/p=%d", p), p, benchProcess(scan))
		heap, err := failure.NewSuperposedProcess(e, p, failure.RejuvenateFailedOnly, rng.New(7))
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("superposed_campaign_heap/p=%d", p), p, benchProcess(heap))
	}
	// The heap on E14's Weibull law, whose per-clock transform (a Pow) is
	// what the lazy clocks defer: fixed sizes, independent of -simprocs.
	for _, p := range []int{1000, 65536} {
		weib, err := expt.E14WeibullLaw(platformMTBF * float64(p))
		if err != nil {
			return nil, err
		}
		heap, err := failure.NewSuperposedProcess(weib, p, failure.RejuvenateFailedOnly, rng.New(7))
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("superposed_campaign_heap/law=weibull,p=%d", p), p, benchProcess(heap))
	}

	// CRN vs independent comparator campaigns: one op = comparing two
	// placements over 200 replications on a 1000-processor Weibull
	// platform — once replaying a shared recorded trace per replication,
	// once resampling per candidate.
	const (
		crnProcs = 1000
		crnRuns  = 200
	)
	weib, err := expt.E14WeibullLaw(platformMTBF / 20 * crnProcs)
	if err != nil {
		return nil, err
	}
	factory := sim.SuperposedFactory(weib, crnProcs, failure.RejuvenateFailedOnly)
	plans := expt.E14ComparatorPlans()
	copts := sim.Options{Downtime: 0.5, Workers: 1}
	record(fmt.Sprintf("campaign_crn/s=%d", len(plans)), crnProcs, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.CampaignPlans(plans, factory, copts, crnRuns, rng.New(9)); err != nil {
				b.Fatal(err)
			}
		}
	}))
	record(fmt.Sprintf("campaign_independent/s=%d", len(plans)), crnProcs, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, plan := range plans {
				if _, err := sim.MonteCarlo(plan, factory, copts, crnRuns, rng.New(9)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}))

	// Sharded campaigns: one op = the same CRN comparison run through the
	// block-deterministic sharded pipeline and merged. Results are
	// bit-identical across the shard counts, so these rows measure what
	// sharding *costs*: the per-block setup and the per-block partial
	// aggregates the deterministic merge keeps. Workers is pinned to 1 —
	// on a multi-core host wall-clock scales with min(Workers, shards·…)
	// but ns/op here tracks the single-threaded overhead trajectory.
	for _, shards := range []int{1, 4, 16} {
		so := sim.ShardOptions{
			Options:   sim.Options{Downtime: 0.5, Workers: 1},
			Seed:      9,
			Runs:      crnRuns,
			Shards:    shards,
			BlockSize: 8, // 25 blocks, so the 16-shard split stays valid
		}
		record(fmt.Sprintf("campaign_sharded/shards=%d", shards), crnProcs, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.CampaignPlansSharded(plans, factory, so); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Adaptive stopping vs fixed budget on the same comparator pair: the
	// off arm spends the full per-candidate budget through the sharded
	// pipeline; the on arm starts at a quarter of it and stops the pair
	// as soon as its paired-delta CI excludes zero, so its ns/op records
	// the realized saving on a pair that separates early.
	fixedSo := sim.ShardOptions{Options: sim.Options{Downtime: 0.5, Workers: 1}, Seed: 9, Runs: crnRuns, Shards: 1}
	record("campaign_adaptive/mode=off", crnProcs, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.CampaignPlansSharded(plans, factory, fixedSo); err != nil {
				b.Fatal(err)
			}
		}
	}))
	adaptSo := sim.ShardOptions{Options: sim.Options{Downtime: 0.5, Workers: 1}, Seed: 9, Shards: 1}
	record("campaign_adaptive/mode=on", crnProcs, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.CampaignPlansAdaptive(plans, factory, adaptSo, sim.AdaptiveOptions{
				TargetWidth: 1e-9,
				InitialRuns: crnRuns / 4,
				MaxRuns:     crnRuns,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Streaming vs sort quantiles: one op = four quantiles over a million
	// samples. The P² path's story is the allocs/op column (O(1) memory
	// vs an 8 MB copy per estimate).
	const qn = 1_000_000
	xs := make([]float64, qn)
	r := rng.New(11)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	record(fmt.Sprintf("quantiles_sort/n=%d", qn), qn, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qs := stats.Quantiles(xs, 0.5, 0.9, 0.99, 0.999)
			if qs[0] <= 0 {
				b.Fatal("degenerate quantile")
			}
		}
	}))
	record(fmt.Sprintf("quantiles_p2/n=%d", qn), qn, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p50, p90 := stats.NewP2Quantile(0.5), stats.NewP2Quantile(0.9)
			p99, p999 := stats.NewP2Quantile(0.99), stats.NewP2Quantile(0.999)
			for _, x := range xs {
				p50.Add(x)
				p90.Add(x)
				p99.Add(x)
				p999.Add(x)
			}
			if p50.Value() <= 0 {
				b.Fatal("degenerate quantile")
			}
		}
	}))
	return report, nil
}

// execChain plans the runtime trajectory's workload: an n-task chain
// (λ = 0.05, DP placement); n = 64 is the sim steady-state workload.
func execChain(n int) (*core.ChainProblem, *exec.Workload, error) {
	g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(5))
	if err != nil {
		return nil, nil, err
	}
	m, err := expectation.NewModel(0.05, 0.5)
	if err != nil {
		return nil, nil, err
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return nil, nil, err
	}
	dp, err := core.SolveChainDP(cp)
	if err != nil {
		return nil, nil, err
	}
	w, err := exec.NewChainWorkload(cp, dp.CheckpointAfter)
	return cp, w, err
}

// measureExec builds the crash-safe runtime trajectory
// (BENCH_exec.json): one full plan execution on the 64-task execChain
// bare and through each checkpoint store, so the store columns read
// directly as the runtime's persistence overhead, plus the mem row at
// n = 4096 and 65536, whose bytes/op must grow linearly in n; plus raw
// store Save throughput on a state-sized payload, where the file row's
// extra ns/op is the fsync'd atomic rename the crash-durability
// contract pays for.
func measureExec() (*Report, error) {
	report := &Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Unix:      time.Now().Unix(),
	}
	record := func(name string, n int, r testing.BenchmarkResult) {
		report.Results = append(report.Results, Measurement{
			Name:        name,
			N:           n,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	cp, w, err := execChain(64)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "benchtraj-exec-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fileStore, err := store.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	src := exec.NewKeyedSource(failure.Exponential{Lambda: 0.05}, 6, 1)
	// One op = one complete execution (plus, for the stored variants,
	// purging the run so the next op starts cold rather than resuming).
	benchExec := func(w *exec.Workload, st store.Store) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Reset()
				opts := exec.Options{Downtime: 0.5}
				if st != nil {
					opts.RunID, opts.Store = "bench", st
				}
				if _, err := exec.Execute(w, src, opts); err != nil {
					b.Fatal(err)
				}
				if st != nil {
					seqs, err := st.List("bench")
					if err != nil {
						b.Fatal(err)
					}
					for _, seq := range seqs {
						if err := st.Delete("bench", seq); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
	record("exec_run/store=none", 64, benchExec(w, nil))
	record("exec_run/store=mem", 64, benchExec(w, store.Checked(store.NewMemStore())))
	record("exec_run/store=file", 64, benchExec(w, store.Checked(fileStore)))
	// Scaling rows: a checkpoint carries only the journal delta since
	// the previous one, so the mem row's bytes/op grows linearly in n.
	for _, n := range []int{4096, 65536} {
		_, wn, err := execChain(n)
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("exec_run/store=mem n=%d", n), n, benchExec(wn, store.Checked(store.NewMemStore())))
	}

	// Raw store Save on a checkpoint-state-sized payload (4 KiB): the
	// codec seal plus the store's write path; the file store's cost is
	// dominated by the fsync + atomic-rename durability contract.
	payload := make([]byte, 4096)
	r := rng.New(17)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	benchSave := func(st store.Store) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.Save("save", uint64(i%8)+1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	record("store_save/kind=mem", 4096, benchSave(store.Checked(store.NewMemStore())))
	record("store_save/kind=file", 4096, benchSave(store.Checked(fileStore)))
	// Quota layer on top of the mem row: the delta is the ledger's
	// admit/commit accounting per save.
	record("store_save/kind=quota", 4096, benchSave(store.NewQuotaStore(
		store.NewQuotaLedger(store.Quota{}, nil), store.Checked(store.NewMemStore()))))
	// Networked rows on top of the mem row: one simulated remote
	// endpoint, then a 3-replica write-quorum (W=2). Latency is virtual
	// and loss is zero — a dropped save would abort the benchmark — so
	// the deltas read as the pure bookkeeping cost of the network layer:
	// keyed jitter/loss draws and attempt accounting per message, plus
	// (for the quorum) the replica fan-out and deterministic response
	// merge.
	netCfg := netsim.Config{Seed: 29, Latency: 0.01, Jitter: 0.005}
	record("store_save/kind=remote", 4096, benchSave(store.Checked(store.NewRemoteStore(
		store.NewMemStore(), netsim.New(netCfg), netCfg, store.RemoteConfig{Remote: "s0"}))))
	qnet := netsim.New(netCfg)
	reps := make([]store.Store, 3)
	for i := range reps {
		reps[i] = store.Checked(store.NewRemoteStore(store.NewMemStore(), qnet, netCfg,
			store.RemoteConfig{Remote: fmt.Sprintf("s%d", i)}))
	}
	quorum, err := store.NewQuorumStore(reps, store.QuorumConfig{W: 2, R: 2})
	if err != nil {
		return nil, err
	}
	record("store_save/kind=quorum", 4096, benchSave(quorum))
	// Lease layer on top of the mem row: the delta is the per-save fence
	// check — one lease-record read, epoch comparison, and (amortized)
	// renewal write through the same codec as the data it guards.
	leaseStore := store.NewLeaseStore(store.Checked(store.NewMemStore()),
		store.LeaseConfig{Holder: "bench", TTL: 1e12})
	if _, err := leaseStore.Acquire("save"); err != nil {
		return nil, err
	}
	record("store_save/kind=lease", 4096, benchSave(leaseStore))

	// Degraded-store resilience rows. exec_adaptive/replan is one
	// suffix re-solve of the chain DP from the mid-plan frontier — the
	// cost the adaptive executor pays each time drift crosses the
	// hysteresis band. The run rows execute the full plan through a
	// lossy, slow store (logically-keyed injector) with exponential
	// backoff, static (no replanner) vs adaptive, so the delta reads as
	// the end-to-end cost/benefit of online replanning at equal fault
	// exposure.
	replanner := exec.ChainReplanner{CP: cp}
	record("exec_adaptive/replan", 64, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := replanner.Replan(32, 1.5); err != nil {
				b.Fatal(err)
			}
		}
	}))
	benchAdaptive := func(rp exec.Replanner) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Reset()
				st := store.Checked(store.NewFaultStore(store.NewMemStore(), store.FaultPlan{
					Seed: 23, WriteFail: 0.1, ReadFail: 0.05, MeanLatency: 0.5, LogicalKeys: true,
				}))
				_, err := exec.Execute(w, src, exec.Options{
					RunID: "bench", Store: st, Downtime: 0.5,
					Adaptive: &exec.AdaptiveOptions{
						Retry:       exec.ExpBackoff{Base: 0.25, Cap: 1, MaxAttempts: 4},
						Replanner:   rp,
						ReplanRatio: 1.3,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	record("exec_adaptive/run mode=static", 64, benchAdaptive(nil))
	record("exec_adaptive/run mode=adaptive", 64, benchAdaptive(replanner))

	// Partition-tolerance rows: one full adaptive execution through a
	// networked store whose endpoint s0 is cut off for the middle of the
	// run. The single-remote arm pays the ride-out (timeouts, backoff,
	// ladder moves, probe re-admission); the quorum arm keeps committing
	// on the two-replica majority — both at equal workload and failure
	// exposure, so the rows price partition tolerance end to end.
	src.Reset()
	bare, err := exec.Execute(w, src, exec.Options{Downtime: 0.5})
	if err != nil {
		return nil, err
	}
	partCfg := netsim.Config{Seed: 31, Latency: 0.01, Partitions: []netsim.Window{
		{Start: 0.3 * bare.Makespan, End: 0.7 * bare.Makespan, Isolated: []string{"s0"}},
	}}
	benchPartition := func(quorumArm bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Reset()
				net := netsim.New(partCfg)
				var st store.Store
				if quorumArm {
					reps := make([]store.Store, 3)
					for k := range reps {
						reps[k] = store.Checked(store.NewRemoteStore(store.NewMemStore(), net, partCfg,
							store.RemoteConfig{Remote: fmt.Sprintf("s%d", k), Timeout: 0.25}))
					}
					q, err := store.NewQuorumStore(reps, store.QuorumConfig{W: 2, R: 2})
					if err != nil {
						b.Fatal(err)
					}
					st = q
				} else {
					st = store.Checked(store.NewRemoteStore(store.NewMemStore(), net, partCfg,
						store.RemoteConfig{Remote: "s0", Timeout: 0.25}))
				}
				_, err := exec.Execute(w, src, exec.Options{
					RunID: "bench", Store: st, Downtime: 0.5,
					Adaptive: &exec.AdaptiveOptions{
						Retry:      exec.ExpBackoff{Base: 0.1, Cap: 0.5, MaxAttempts: 3},
						DownAfter:  2,
						ProbeEvery: 2,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	record("exec_partition/store=remote", 64, benchPartition(false))
	record("exec_partition/store=quorum", 64, benchPartition(true))

	// Anti-entropy row: the quorum partition arm again, now with an
	// executor-driven sync pass every 3rd commit plus the final one. The
	// delta against exec_partition/store=quorum prices converging the
	// partitioned replica during the run instead of leaving it behind.
	record("exec_sync/store=quorum sync-every=3", 64, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reset()
			net := netsim.New(partCfg)
			reps := make([]store.Store, 3)
			for k := range reps {
				reps[k] = store.Checked(store.NewRemoteStore(store.NewMemStore(), net, partCfg,
					store.RemoteConfig{Remote: fmt.Sprintf("s%d", k), Timeout: 0.25}))
			}
			q, err := store.NewQuorumStore(reps, store.QuorumConfig{W: 2, R: 2})
			if err != nil {
				b.Fatal(err)
			}
			_, err = exec.Execute(w, src, exec.Options{
				RunID: "bench", Store: q, Downtime: 0.5,
				Adaptive: &exec.AdaptiveOptions{
					Retry:      exec.ExpBackoff{Base: 0.1, Cap: 0.5, MaxAttempts: 3},
					DownAfter:  2,
					ProbeEvery: 2,
					SyncEvery:  3,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}))
	return report, nil
}

// measureDag builds the exact-DAG-solver trajectory (BENCH_dag.json):
// downset-lattice solves vs factorial order enumeration on the E15
// in-tree workloads (shared via expt.E15Graph, so the trajectory
// measures the experiment's graphs), plus the linearization portfolio
// serial vs parallel. The factorial arm only runs where the
// linear-extension count stays benchmarkable; its absence at larger n
// *is* the trajectory's story, next to the lattice points that remain
// a few ms with their peak state counts recorded.
func measureDag(dagSizes []int) (*Report, error) {
	report := &Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Unix:      time.Now().Unix(),
	}
	record := func(name string, n int, states int64, r testing.BenchmarkResult) {
		report.Results = append(report.Results, Measurement{
			Name:        name,
			N:           n,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			States:      states,
		})
	}
	m, err := expt.E15Model()
	if err != nil {
		return nil, err
	}
	const factorialBudget = 1e5 // orders beyond this are not benchmarkable
	for _, n := range dagSizes {
		g, err := expt.E15Graph("in-tree", n, rng.New(13))
		if err != nil {
			return nil, err
		}
		lat, err := g.Lattice()
		if err != nil {
			return nil, err
		}
		orders := lat.CountLinearExtensions()
		opts := core.Options{Workers: 1}
		latRes, latStats, err := core.SolveDAGLatticeStats(g, m, core.LastTaskCosts{}, opts)
		if err != nil {
			return nil, err
		}
		record(fmt.Sprintf("dag_lattice/n=%d", g.Len()), g.Len(), latStats.States,
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.SolveDAGLattice(g, m, core.LastTaskCosts{}, opts); err != nil {
						b.Fatal(err)
					}
				}
			}))
		if orders <= factorialBudget {
			record(fmt.Sprintf("dag_factorial/n=%d", g.Len()), g.Len(), 0,
				testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						ex, err := core.SolveDAGExhaustive(g, m, core.LastTaskCosts{}, 0)
						if err != nil {
							b.Fatal(err)
						}
						if ex.Expected != latRes.Expected {
							b.Fatalf("factorial %v ≠ lattice %v", ex.Expected, latRes.Expected)
						}
					}
				}))
		}
	}

	// Portfolio serial vs parallel on a wide layered workflow: same
	// result bit-for-bit, the parallel arm bounded by Options.Workers.
	pg, err := dag.Layered(10, 20, 0.3, dag.DefaultWeights(), rng.New(14))
	if err != nil {
		return nil, err
	}
	for _, workers := range []int{1, 4} {
		opts := core.Options{Workers: workers}
		record(fmt.Sprintf("dag_portfolio/workers=%d", workers), pg.Len(), 0,
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.SolveDAGWith(pg, m, core.LiveSetCosts{}, opts); err != nil {
						b.Fatal(err)
					}
				}
			}))
	}
	return report, nil
}
