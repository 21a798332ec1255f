// Command perfbench is the repository's benchmark. It runs one workload
// as a closed loop with one client issuing sequential operations, checks
// every operation's output, and prints every metric by name with its
// unit; the last line of standard output is a JSON summary.
//
// Workloads:
//
//	plan     chain DP on a 10⁶-task chain, DAG portfolio, exact lattice
//	         solve and a Monte-Carlo campaign; no persistence
//	execute  plan a 2048-task chain, execute it on the full store stack,
//	         kill it at the journal midpoint, resume it, complete it
//	recover  scrub, anti-entropy sync and a restart over the replicas a
//	         killed run left behind, with torn frames planted on one
//
// With -trace 1 the stores carry a probe above every layer and the
// summary reports per-layer metrics; each traced operation is paired
// with an untraced one, which must produce the same journal and counters.
//
// Usage:
//
//	perfbench -workload execute -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// config sizes every workload.
type config struct {
	PlanChainN   int     // tasks in the plan workload's chain
	PlanLambda   float64 // its failure rate
	DenseN       int     // tasks in the chain checked against the dense DP
	DAGLayers    int     // the layered DAG of the portfolio solve
	DAGWidth     int
	TreeN        int // tasks in the in-tree of the lattice solve
	CampaignReps int // Monte-Carlo replications per campaign
	ExecN        int // tasks in the executed chain
	ExecLambda   float64
	SetupReps    int // set-ups per run; setup_s is their median
	MinOps       int // measured ops per run, however long they take
}

var fullConfig = config{
	PlanChainN: 1_000_000, PlanLambda: 0.001, DenseN: 5000,
	DAGLayers: 20, DAGWidth: 25, TreeN: 28, CampaignReps: 2000,
	ExecN: 2048, ExecLambda: 0.05,
	SetupReps: 3, MinOps: 5,
}

// sample holds one operation's measurements by metric name.
type sample map[string]float64

// workload runs operations on inputs built once by its set-up.
type workload interface {
	// op runs one operation, traced when tr is non-nil. It returns the
	// operation's measurements, a signature of its outputs that a traced
	// and an untraced run of the operation must agree on, and an error
	// when the operation failed or its output check did.
	op(tr *tracer) (sample, string, error)
}

// workloadDef pairs a workload's set-up with the reference kernel of
// the resource its op is bound by.
type workloadDef struct {
	setup func(config, uint64) (workload, error)
	ref   func() refKernel
}

var workloads = map[string]workloadDef{
	"plan":    {setupPlan, newFPKernel},
	"execute": {setupExecute, newMemKernel},
	"recover": {setupRecover, newMemKernel},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports. op_ref is the time
// of one operation of the workload, in units of its reference kernel
// (see refKernel): the four planning calls (plan), one full
// plan-execute-kill-resume cycle (execute), or one scrub, sync and
// restart (recover).
var endToEnd = []metricDef{
	{"op_ref", "ref"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// stageMetrics are the op's wall time, its reference kernel's time and
// the op's stages per workload; untraced runs print them and traced runs
// report them with the per-layer metrics.
var stageMetrics = []metricDef{
	{"op_s", "s"},
	{"ref_s", "s"},
	{"plan_chain_s", "s"},
	{"plan_dag_s", "s"},
	{"campaign_reps_per_s", "1/s"},
	{"run_s", "s"},
	{"stored_bytes_per_task", "bytes/task"},
	{"restart_s", "s"},
	{"scrub_s", "s"},
	{"sync_s", "s"},
}

// perLayer are the metrics a traced run reports, per operation.
func perLayer() []metricDef {
	defs := slices.Clone(stageMetrics)
	for _, l := range storeLayers {
		for _, op := range []string{"save", "load"} {
			p := "store." + l + "." + op
			defs = append(defs, metricDef{p + ".calls", "count"}, metricDef{p + ".self_s", "s"},
				metricDef{p + ".bytes", "bytes"}, metricDef{p + ".errors", "count"})
		}
		p := "store." + l + ".list"
		defs = append(defs, metricDef{p + ".calls", "count"}, metricDef{p + ".self_s", "s"})
	}
	return append(defs,
		metricDef{"store.lease.validations", "count"},
		metricDef{"store.lease.renewals", "count"},
		metricDef{"store.quorum.repairs", "count"},
		metricDef{"store.quorum.hedged", "count"},
		metricDef{"store.remote.timeouts", "count"},
		metricDef{"store.quorum.sync.copied", "count"},
		metricDef{"store.quorum.scrub.repaired", "count"},
		metricDef{"exec.bare_run_s", "s"},
		metricDef{"exec.save_payload_bytes", "bytes"},
		metricDef{"exec.events_per_task", "events/task"},
		metricDef{"exec.store_overhead_vt", "vt"},
		metricDef{"exec.restored_events", "count"},
		metricDef{"core.chain.build_s", "s"},
		metricDef{"core.chain.solve_s", "s"},
		metricDef{"core.chain.transitions_per_task", "1/task"},
		metricDef{"core.dag.portfolio_s", "s"},
		metricDef{"core.dag.lattice_s", "s"},
		metricDef{"core.dag.lattice_states", "count"},
		metricDef{"sim.campaign_s", "s"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"trace.residual_s", "s"},
	)
}

// units maps every metric name the benchmark can report to its unit.
func units() map[string]string {
	u := map[string]string{"op_failure_ratio": "ratio"}
	for _, defs := range [][]metricDef{endToEnd, perLayer()} {
		for _, d := range defs {
			u[d.name] = d.unit
		}
	}
	return u
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // Chrome trace of the last traced op; "" writes none
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: plan, execute or recover")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 probes every store layer and reports per-layer metrics")
	flag.StringVar(&opt.spans, "spans", filepath.Join(".bench_build", "spans-<workload>.json"), "with -trace 1, write the last traced op's spans here as Chrome trace JSON")
	flag.Parse()
	if _, ok := workloads[opt.workload]; !ok || (trace != 0 && trace != 1) || opt.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload plan|execute|recover, -trace 0|1 and positive -seconds")
		flag.Usage()
		os.Exit(2)
	}
	opt.trace = trace == 1
	if opt.trace {
		opt.spans = strings.ReplaceAll(opt.spans, "<workload>", opt.workload)
	} else {
		opt.spans = ""
	}
	// One client, one worker everywhere, and one P: the collector then
	// shares the op's processor instead of racing it on a second one,
	// which on a small shared host is both faster and steadier.
	runtime.GOMAXPROCS(1)
	out := bufio.NewWriter(os.Stdout)
	sum, err := run(fullConfig, opt, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !sum.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, runs one warm-up op and then measured ops
// for opt.seconds, and returns the summary. Human-readable lines go to w.
func run(cfg config, opt options, w io.Writer) (*summary, error) {
	fmt.Fprintf(w, "# host %s\n", hostFacts())
	def := workloads[opt.workload]
	ref := def.ref()
	var wl workload
	var setupTimes []float64
	for i := 0; i < cfg.SetupReps; i++ {
		wl = nil // collect the previous set-up before timing the next
		runtime.GC()
		start := time.Now()
		var err error
		if wl, err = def.setup(cfg, opt.seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", opt.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	sum := &summary{Metrics: map[string]metricValue{}}
	var samples []sample
	var lastTrace *tracer
	var firstErr error
	pair := func() sample {
		sum.Attempted++
		runtime.GC()
		before := ref()
		m, sig, err := wl.op(nil)
		runtime.GC()
		after := ref()
		if m != nil {
			m["ref_s"] = (before + after) / 2
			m["op_ref"] = m["op_s"] / m["ref_s"]
		}
		if err == nil && opt.trace {
			runtime.GC()
			tr := newTracer()
			var tm sample
			var tsig string
			tm, tsig, err = wl.op(tr)
			if err == nil && tsig != sig {
				err = fmt.Errorf("traced op's outputs differ from the untraced op's:\n  untraced %s\n  traced   %s", sig, tsig)
			}
			if err == nil {
				m = tracedSample(m, tm, tr)
				lastTrace = tr
			}
		}
		if err != nil {
			sum.Failed++
			if firstErr == nil {
				firstErr = err
			}
			fmt.Fprintf(w, "# op %d failed: %v\n", sum.Attempted, err)
			return nil
		}
		return m
	}

	pair() // warm-up: checked, not measured
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(samples) < cfg.MinOps || time.Now().Before(deadline) {
		if m := pair(); m != nil {
			samples = append(samples, m)
			fmt.Fprintf(w, "# op %d: op_s %s op_ref %s\n", sum.Attempted,
				strconv.FormatFloat(m["op_s"], 'g', 6, 64), strconv.FormatFloat(m["op_ref"], 'g', 6, 64))
		}
		if sum.Failed > 0 && len(samples) == 0 && sum.Attempted > cfg.MinOps {
			break
		}
	}

	known := units()
	medians := map[string]float64{}
	counts := map[string]int{}
	for _, s := range samples {
		for name := range s {
			if _, ok := known[name]; !ok {
				return nil, fmt.Errorf("metric %q has no unit", name)
			}
			counts[name]++
		}
	}
	for name := range counts {
		var xs []float64
		for _, s := range samples {
			if v, ok := s[name]; ok {
				xs = append(xs, v)
			}
		}
		medians[name] = median(xs)
	}
	medians["setup_s"], counts["setup_s"] = median(setupTimes), len(setupTimes)
	medians["peak_rss_mb"], counts["peak_rss_mb"] = peakRSSMB(), 1
	medians["op_failure_ratio"], counts["op_failure_ratio"] = float64(sum.Failed)/float64(sum.Attempted), sum.Attempted

	fmt.Fprintf(w, "# workload %s seed %d trace %v: %d ops measured after 1 warm-up, %d of %d attempted failed\n",
		opt.workload, opt.seed, opt.trace, len(samples), sum.Failed, sum.Attempted)
	names := make([]string, 0, len(medians))
	for name := range medians {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %s %s %s (median of %d)\n", name, strconv.FormatFloat(medians[name], 'g', -1, 64), known[name], counts[name])
	}

	reported := endToEnd
	if opt.trace {
		reported = perLayer()
	}
	for _, d := range reported {
		sum.Metrics[d.name] = metricValue{Value: medians[d.name], Unit: d.unit}
	}
	sum.Correct = sum.Failed == 0 && len(samples) > 0
	if firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", firstErr)
	}
	if lastTrace != nil && opt.spans != "" {
		if err := os.MkdirAll(filepath.Dir(opt.spans), 0o755); err != nil {
			return nil, err
		}
		if err := lastTrace.writeChromeTrace(opt.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "# spans of the last traced op: %s\n", opt.spans)
	}
	return sum, nil
}

// tracedSample merges a traced op into its untraced twin: stage timings
// stay the untraced op's, the per-layer metrics come from the traced
// op and its spans, and the difference of the two op times is the
// tracing overhead.
func tracedSample(untraced, traced sample, tr *tracer) sample {
	m := sample{}
	for k, v := range traced {
		m[k] = v
	}
	for _, d := range stageMetrics {
		if v, ok := untraced[d.name]; ok {
			m[d.name] = v
		}
	}
	m["op_ref"] = untraced["op_ref"]
	m["trace.overhead_s"] = traced["op_s"] - untraced["op_s"]

	stats := tr.layerStats()
	var self float64
	calls := 0
	for l, name := range storeLayers {
		for op, opName := range opNames[:opDelete] {
			st := stats[l][op]
			p := "store." + name + "." + opName
			m[p+".calls"] = float64(st.calls)
			m[p+".self_s"] = float64(st.selfNS) / 1e9
			if op != opList {
				m[p+".bytes"] = float64(st.bytes)
				m[p+".errors"] = float64(st.errors)
			}
		}
		for _, st := range stats[l] {
			self += float64(st.selfNS) / 1e9
			calls += st.calls
		}
	}
	if top := stats[0][opSave]; top.calls > 0 {
		m["exec.save_payload_bytes"] = float64(top.bytes) / float64(top.calls)
	}
	if calls > 0 {
		// What the store layers and the store-less executor do not
		// account for: the adaptive executor's own work, the state codec,
		// planning and stack construction.
		m["trace.residual_s"] = traced["op_s"] - traced["exec.bare_run_s"] - self
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	kb, err := procField("/proc/self/status", "VmHWM:")
	if err != nil {
		return 0
	}
	return kb / 1024
}

// procField returns the leading number of the line starting with key.
func procField(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return strconv.ParseFloat(fields[0], 64)
			}
		}
	}
	return 0, errors.New(key + " not found in " + path)
}

// hostFacts describes the machine the numbers were measured on.
func hostFacts() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	memKB, _ := procField("/proc/meminfo", "MemTotal:")
	facts, _ := json.Marshal(map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu":          cpu,
		"mem_total_mb": int(memKB / 1024),
		"go":           runtime.Version(),
	})
	return string(facts)
}
