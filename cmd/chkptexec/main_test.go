package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"errors"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/trace"
)

// writeWorkflow materializes a graph as a workflow JSON file in dir.
func writeWorkflow(t *testing.T, dir string, g *dag.Graph) string {
	t.Helper()
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wf.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func chainWorkflow(t *testing.T, dir string, n int) string {
	t.Helper()
	g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return writeWorkflow(t, dir, g)
}

func baseConfig(wf string) config {
	return config{
		wfPath: wf, lambda: 0.05, downtime: 1, seed: 3,
		runs: 500, strategy: "dp", costmodel: "last-task", runID: "run", replicas: 1,
	}
}

// TestCampaignChain checks the default mode end to end: the realized
// mean is reported against the planned expectation.
func TestCampaignChain(t *testing.T) {
	wf := chainWorkflow(t, t.TempDir(), 12)
	var out bytes.Buffer
	if err := run(baseConfig(wf), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"plan: chain/dp", "campaign: 500 runs", "planned vs realized"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestCampaignStrategies exercises every chain strategy spelling,
// including the parameterized one, plus rejection of bad names.
func TestCampaignStrategies(t *testing.T) {
	wf := chainWorkflow(t, t.TempDir(), 10)
	for _, strat := range []string{"dp", "always", "never", "daly", "young", "every:3"} {
		cfg := baseConfig(wf)
		cfg.strategy = strat
		cfg.runs = 50
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Errorf("strategy %s: %v", strat, err)
		}
	}
	for _, bad := range []string{"bogus", "every:0", "every:x"} {
		cfg := baseConfig(wf)
		cfg.strategy = bad
		if err := run(cfg, &bytes.Buffer{}); err == nil {
			t.Errorf("strategy %q accepted", bad)
		}
	}
}

// TestCampaignDAG routes a non-chain workflow through the order DP
// under both cost models.
func TestCampaignDAG(t *testing.T) {
	g, err := dag.Layered(3, 3, 0.5, dag.DefaultWeights(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	wf := writeWorkflow(t, t.TempDir(), g)
	for _, cm := range []string{"last-task", "live-set"} {
		cfg := baseConfig(wf)
		cfg.costmodel = cm
		cfg.runs = 50
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("cost model %s: %v", cm, err)
		}
		if !strings.Contains(out.String(), "plan: dag/"+cm) {
			t.Errorf("cost model %s not reported:\n%s", cm, out.String())
		}
	}
	cfg := baseConfig(wf)
	cfg.costmodel = "nope"
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Error("bad cost model accepted")
	}
}

var journalLine = regexp.MustCompile(`journal: (\d+) events, hash ([0-9a-f]{16})`)

var planLine = regexp.MustCompile(`plan: \S+ — \d+ tasks, (\d+) segments`)

// TestPersistedCrashResume is the CLI-level crash drill: kill a
// persisted run at an injected point, re-invoke to resume, and check
// the journal hash matches an uninterrupted run in a fresh store.
func TestPersistedCrashResume(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)

	// Reference: uninterrupted persisted run.
	ref := baseConfig(wf)
	ref.dir = filepath.Join(base, "ref")
	var refOut bytes.Buffer
	if err := run(ref, &refOut); err != nil {
		t.Fatal(err)
	}
	refM := journalLine.FindStringSubmatch(refOut.String())
	if refM == nil {
		t.Fatalf("no journal line in reference output:\n%s", refOut.String())
	}

	// Crash at an injected point, then resume with the same store.
	crashed := baseConfig(wf)
	crashed.dir = filepath.Join(base, "crash")
	crashed.crashEvents = 10
	var crashOut bytes.Buffer
	if err := run(crashed, &crashOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(crashOut.String(), "crashed as requested") {
		t.Fatalf("crash flag did not crash:\n%s", crashOut.String())
	}

	resumed := crashed
	resumed.crashEvents = 0
	var resOut bytes.Buffer
	if err := run(resumed, &resOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resOut.String(), "resumed from checkpoint") {
		t.Fatalf("resume not reported:\n%s", resOut.String())
	}
	resM := journalLine.FindStringSubmatch(resOut.String())
	if resM == nil {
		t.Fatalf("no journal line in resumed output:\n%s", resOut.String())
	}
	if resM[1] != refM[1] || resM[2] != refM[2] {
		t.Errorf("resumed journal %s/%s differs from reference %s/%s",
			resM[1], resM[2], refM[1], refM[2])
	}
}

// TestPersistedWithFaults drives the persisted path through the fault
// injector with retries; the run must still complete with the same
// journal hash as the clean store.
func TestPersistedWithFaults(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)

	clean := baseConfig(wf)
	clean.dir = filepath.Join(base, "clean")
	var cleanOut bytes.Buffer
	if err := run(clean, &cleanOut); err != nil {
		t.Fatal(err)
	}
	cleanM := journalLine.FindStringSubmatch(cleanOut.String())

	faulty := baseConfig(wf)
	faulty.dir = filepath.Join(base, "faulty")
	faulty.faults = true
	faulty.retries = 6
	var faultOut bytes.Buffer
	if err := run(faulty, &faultOut); err != nil {
		t.Fatal(err)
	}
	faultM := journalLine.FindStringSubmatch(faultOut.String())
	if faultM == nil {
		t.Fatalf("no journal line under faults:\n%s", faultOut.String())
	}
	if cleanM == nil || faultM[1] != cleanM[1] || faultM[2] != cleanM[2] {
		t.Errorf("faulty-store journal %v differs from clean %v", faultM[1:], cleanM[1:])
	}
}

var resilienceLine = regexp.MustCompile(`resilience: policy ([a-z0-9:.]+), replans (\d+), save give-ups (\d+), level (\w+), store overhead ([0-9.]+), max rewind exposure ([0-9.]+)`)

// TestPersistedAdaptiveDegraded drives the persisted path through a
// degraded store (injected latency + write faults) on the adaptive
// executor: the run must replan at least once, print the resilience
// summary, and a killed invocation must resume to the same journal
// hash as an uninterrupted adaptive run.
func TestPersistedAdaptiveDegraded(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	adaptive := func(dir string) config {
		cfg := baseConfig(wf)
		cfg.dir = filepath.Join(base, dir)
		cfg.faults = true
		cfg.faultLatency = 2
		cfg.retryPolicy = "exp:0.5"
		cfg.replanThreshold = 1.3
		return cfg
	}

	var refOut bytes.Buffer
	if err := run(adaptive("ref"), &refOut); err != nil {
		t.Fatal(err)
	}
	refM := journalLine.FindStringSubmatch(refOut.String())
	if refM == nil {
		t.Fatalf("no journal line:\n%s", refOut.String())
	}
	res := resilienceLine.FindStringSubmatch(refOut.String())
	if res == nil {
		t.Fatalf("no resilience summary:\n%s", refOut.String())
	}
	if res[1] != "exp" {
		t.Errorf("policy %q, want exp", res[1])
	}
	if res[2] == "0" {
		t.Errorf("no replans under 2-unit store latency:\n%s", refOut.String())
	}
	if res[5] == "0.0000" {
		t.Errorf("zero store overhead under injected latency:\n%s", refOut.String())
	}

	crashed := adaptive("crash")
	crashed.crashEvents = 10
	var crashOut bytes.Buffer
	if err := run(crashed, &crashOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(crashOut.String(), "crashed as requested") {
		t.Fatalf("crash flag did not crash:\n%s", crashOut.String())
	}
	resumed := crashed
	resumed.crashEvents = 0
	var resOut bytes.Buffer
	if err := run(resumed, &resOut); err != nil {
		t.Fatal(err)
	}
	resM := journalLine.FindStringSubmatch(resOut.String())
	if resM == nil {
		t.Fatalf("no journal line in resumed output:\n%s", resOut.String())
	}
	if resM[1] != refM[1] || resM[2] != refM[2] {
		t.Errorf("resumed adaptive journal %s/%s differs from reference %s/%s",
			resM[1], resM[2], refM[1], refM[2])
	}
}

// TestPersistedMultiTenantQuota runs concurrent tenants against one
// shared store stack under a per-tenant quota and checks every tenant
// completes with its own resilience summary.
func TestPersistedMultiTenantQuota(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	cfg := baseConfig(wf)
	cfg.dir = filepath.Join(base, "shared")
	cfg.faults = true
	cfg.retryPolicy = "fixed:2"
	cfg.quota = "ckpts:2"
	cfg.tenants = 3
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for i := 0; i < cfg.tenants; i++ {
		prefix := "tenant " + string(rune('0'+i)) + ": "
		if !strings.Contains(s, prefix+"completed:") {
			t.Errorf("tenant %d did not complete:\n%s", i, s)
		}
		if !strings.Contains(s, prefix+"resilience: policy fixed:2") {
			t.Errorf("tenant %d missing resilience summary:\n%s", i, s)
		}
	}
	// A 2-checkpoint quota on a 12-task dp plan must reject some saves.
	if !resilienceLine.MatchString(s) {
		t.Fatalf("no resilience line:\n%s", s)
	}
}

// TestResilienceFlagsRequireDir pins the campaign-mode rejection.
func TestResilienceFlagsRequireDir(t *testing.T) {
	wf := chainWorkflow(t, t.TempDir(), 10)
	cfg := baseConfig(wf)
	cfg.retryPolicy = "exp"
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Error("resilience flags without -dir accepted")
	}
}

// TestParseRetryPolicy covers the flag grammar.
func TestParseRetryPolicy(t *testing.T) {
	for _, good := range []string{"", "none", "fixed:3", "exp", "exp:1", "exp:1:3", "exp:1:3:8", "exp:1:3:8:5"} {
		if _, err := parseRetryPolicy(good); err != nil {
			t.Errorf("parseRetryPolicy(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"bogus", "fixed:0", "fixed:x", "exp:-1", "exp:1:2:3:0", "exp:1:2:3:x"} {
		if _, err := parseRetryPolicy(bad); err == nil {
			t.Errorf("parseRetryPolicy(%q) accepted", bad)
		}
	}
}

// TestRetryPolicyFlagValidation pins that a non-finite or over-long
// -retry-policy spelling fails the persisted run (exit 1) instead of
// running with a NaN or truncated backoff.
func TestRetryPolicyFlagValidation(t *testing.T) {
	wf := chainWorkflow(t, t.TempDir(), 8)
	for _, bad := range []string{"exp:NaN", "exp:Inf", "exp:0.5:NaN", "exp:0.5:2:4:5:7"} {
		cfg := baseConfig(wf)
		cfg.dir = t.TempDir()
		cfg.faults = true
		cfg.retryPolicy = bad
		var out bytes.Buffer
		err := run(cfg, &out)
		if err == nil || !strings.Contains(err.Error(), "bad retry policy") {
			t.Errorf("-retry-policy %s: err %v, want a bad retry policy error\n%s", bad, err, out.String())
		}
	}
}

// TestParseQuota covers the quota grammar.
func TestParseQuota(t *testing.T) {
	q, err := parseQuota("ckpts:4,bytes:8192")
	if err != nil || q.MaxCheckpoints != 4 || q.MaxBytes != 8192 {
		t.Errorf("parseQuota: %+v, %v", q, err)
	}
	for _, bad := range []string{"x", "ckpts:0", "bytes:-1", "ckpts:4,nope:1"} {
		if _, err := parseQuota(bad); err == nil {
			t.Errorf("parseQuota(%q) accepted", bad)
		}
	}
}

func TestMissingWorkflow(t *testing.T) {
	cfg := baseConfig(filepath.Join(t.TempDir(), "nope.json"))
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Error("missing workflow file accepted")
	}
}

// writeTrace materializes a synthetic failure trace as a CSV file.
func writeTrace(t *testing.T, dir string, mtbf, horizon float64, nodes int) string {
	t.Helper()
	dist, err := failure.NewExponential(1 / mtbf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(dist, nodes, horizon, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceDrivenRun replays a recorded failure log through a persisted
// run: two fresh stores driven by the same trace produce identical
// journals, and a trace too short for the workload fails loudly instead
// of fabricating a failure-free tail.
func TestTraceDrivenRun(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	long := writeTrace(t, base, 20, 100000, 4)

	hashes := make([]string, 2)
	for i := range hashes {
		cfg := baseConfig(wf)
		cfg.dir = filepath.Join(base, fmt.Sprintf("trace%d", i))
		cfg.tracePath = long
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatal(err)
		}
		m := journalLine.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no journal line:\n%s", out.String())
		}
		hashes[i] = m[2]
	}
	if hashes[0] != hashes[1] {
		t.Errorf("same trace, different journals: %s vs %s", hashes[0], hashes[1])
	}

	short := writeTrace(t, base, 2, 9, 1)
	cfg := baseConfig(wf)
	cfg.dir = filepath.Join(base, "short")
	cfg.tracePath = short
	err := run(cfg, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "exhausted mid-run") {
		t.Errorf("exhausted trace not reported loudly: %v", err)
	}
}

// TestTraceFlagValidation pins the modes a trace cannot drive.
func TestTraceFlagValidation(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 8)
	tracePath := writeTrace(t, base, 20, 10000, 2)

	campaign := baseConfig(wf)
	campaign.tracePath = tracePath
	if err := run(campaign, &bytes.Buffer{}); err == nil {
		t.Error("-trace without -dir accepted")
	}

	tenants := baseConfig(wf)
	tenants.dir = filepath.Join(base, "d")
	tenants.tracePath = tracePath
	tenants.tenants = 3
	if err := run(tenants, &bytes.Buffer{}); err == nil {
		t.Error("-trace with -tenants accepted")
	}

	missing := baseConfig(wf)
	missing.dir = filepath.Join(base, "d2")
	missing.tracePath = filepath.Join(base, "nope.csv")
	if err := run(missing, &bytes.Buffer{}); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestNetworkedFlagsRequireDir pins that network and telemetry flags
// demand a persisted run.
func TestNetworkedFlagsRequireDir(t *testing.T) {
	wf := chainWorkflow(t, t.TempDir(), 8)
	net := baseConfig(wf)
	net.netLatency = 0.1
	if err := run(net, &bytes.Buffer{}); err == nil {
		t.Error("network flags without -dir accepted")
	}
	tel := baseConfig(wf)
	tel.planFromTelemetry = true
	if err := run(tel, &bytes.Buffer{}); err == nil {
		t.Error("-plan-from-telemetry without -dir accepted")
	}
}

// TestStoreFlagValidation pins that out-of-range store flags fail the
// persisted run instead of being ignored or clamped.
func TestStoreFlagValidation(t *testing.T) {
	wf := chainWorkflow(t, t.TempDir(), 8)
	for name, set := range map[string]func(*config){
		"negative latency":        func(c *config) { c.netLatency = -3 },
		"NaN jitter":              func(c *config) { c.netJitter = math.NaN() },
		"loss above 1":            func(c *config) { c.netLoss = 2 },
		"negative timeout":        func(c *config) { c.netLatency, c.netTimeout = 0.5, -1 },
		"zero replicas":           func(c *config) { c.replicas = 0 },
		"negative fault latency":  func(c *config) { c.faults, c.faultLatency = true, -1 },
		"write quorum, 1 replica": func(c *config) { c.writeQuorum = 5 },
	} {
		cfg := baseConfig(wf)
		cfg.dir = t.TempDir()
		set(&cfg)
		if err := run(cfg, &bytes.Buffer{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Without -dir no store is built, so the flags are checked up front.
	for name, set := range map[string]func(*config){
		"zero replicas":           func(c *config) { c.replicas = 0 },
		"negative replicas":       func(c *config) { c.replicas = -5 },
		"write quorum, 1 replica": func(c *config) { c.writeQuorum = 5 },
	} {
		cfg := baseConfig(wf)
		set(&cfg)
		if err := run(cfg, &bytes.Buffer{}); err == nil {
			t.Errorf("%s without -dir accepted", name)
		}
	}
}

// TestParsePartitions covers the window grammar.
func TestParsePartitions(t *testing.T) {
	wins, err := parsePartitions("10:25,40:50.5")
	if err != nil || len(wins) != 2 || wins[1].End != 50.5 || wins[0].Isolated[0] != "s0" {
		t.Errorf("parsePartitions: %+v, %v", wins, err)
	}
	if wins, err := parsePartitions(""); err != nil || wins != nil {
		t.Errorf("empty spec: %+v, %v", wins, err)
	}
	for _, bad := range []string{"10", "10:5", "x:5", "10:y", "-1:5", "1:NaN", "NaN:5"} {
		if _, err := parsePartitions(bad); err == nil {
			t.Errorf("parsePartitions(%q) accepted", bad)
		}
	}
}

// TestNetworkedQuorumPartitionResume is the CLI face of the tentpole:
// a quorum of three networked replicas rides out a partition window
// isolating replica s0, and a run killed during the window resumes to
// the reference journal bit-for-bit.
func TestNetworkedQuorumPartitionResume(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	netCfg := func(dir string) config {
		cfg := baseConfig(wf)
		cfg.dir = dir
		cfg.netLatency = 0.05
		cfg.netJitter = 0.1
		cfg.netLoss = 0.02
		cfg.netSeed = 9
		cfg.replicas = 3
		cfg.partition = "2:40"
		cfg.retryPolicy = "exp:0.5"
		return cfg
	}

	var refOut bytes.Buffer
	if err := run(netCfg(filepath.Join(base, "ref")), &refOut); err != nil {
		t.Fatal(err)
	}
	refM := journalLine.FindStringSubmatch(refOut.String())
	if refM == nil {
		t.Fatalf("no journal line in reference output:\n%s", refOut.String())
	}

	crashed := netCfg(filepath.Join(base, "crash"))
	crashed.crashEvents = 12
	var crashOut bytes.Buffer
	if err := run(crashed, &crashOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(crashOut.String(), "crashed as requested") {
		t.Fatalf("crash flag did not crash:\n%s", crashOut.String())
	}
	resumed := netCfg(filepath.Join(base, "crash"))
	var resOut bytes.Buffer
	if err := run(resumed, &resOut); err != nil {
		t.Fatal(err)
	}
	resM := journalLine.FindStringSubmatch(resOut.String())
	if resM == nil {
		t.Fatalf("no journal line in resumed output:\n%s", resOut.String())
	}
	if resM[1] != refM[1] || resM[2] != refM[2] {
		t.Errorf("resumed journal %s/%s differs from reference %s/%s",
			resM[1], resM[2], refM[1], refM[2])
	}

	// The replicas hold real per-replica directories.
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(base, "ref", fmt.Sprintf("r%d", i))); err != nil {
			t.Errorf("replica directory r%d missing: %v", i, err)
		}
	}
}

// TestPlanFromTelemetry pins the plan-time feedback loop: probing a
// slow networked store re-solves the placement with the effective
// checkpoint cost, yielding a sparser plan than the naive one.
func TestPlanFromTelemetry(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)

	naive := baseConfig(wf)
	naive.dir = filepath.Join(base, "naive")
	var naiveOut bytes.Buffer
	if err := run(naive, &naiveOut); err != nil {
		t.Fatal(err)
	}
	naiveM := planLine.FindStringSubmatch(naiveOut.String())
	if naiveM == nil {
		t.Fatalf("no plan line:\n%s", naiveOut.String())
	}

	tel := baseConfig(wf)
	tel.dir = filepath.Join(base, "tel")
	tel.netLatency = 3
	tel.planFromTelemetry = true
	var telOut bytes.Buffer
	if err := run(tel, &telOut); err != nil {
		t.Fatal(err)
	}
	s := telOut.String()
	if !strings.Contains(s, "probe: 16 samples") {
		t.Errorf("probe summary missing:\n%s", s)
	}
	telM := planLine.FindStringSubmatch(s)
	if telM == nil || !strings.Contains(s, "chain/telemetry") {
		t.Fatalf("telemetry plan line missing:\n%s", s)
	}
	naiveSegs, _ := strconv.Atoi(naiveM[1])
	telSegs, _ := strconv.Atoi(telM[1])
	if telSegs >= naiveSegs {
		t.Errorf("telemetry plan has %d segments, naive %d — a slow store should sparsify", telSegs, naiveSegs)
	}
}

// TestPersistedLeasedRun pins the single-writer lease path: the run
// holds epoch 1, a crash/resume cycle re-acquires a higher epoch in the
// new process, and the lease traffic is invisible to the journal — the
// leased journal matches a lease-free reference bit for bit.
func TestPersistedLeasedRun(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)

	ref := baseConfig(wf)
	ref.dir = filepath.Join(base, "ref")
	var refOut bytes.Buffer
	if err := run(ref, &refOut); err != nil {
		t.Fatal(err)
	}
	refM := journalLine.FindStringSubmatch(refOut.String())
	if refM == nil {
		t.Fatalf("no journal line in reference output:\n%s", refOut.String())
	}

	leased := baseConfig(wf)
	leased.dir = filepath.Join(base, "leased")
	leased.lease = 1e9
	leased.crashEvents = 10
	var crashOut bytes.Buffer
	if err := run(leased, &crashOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lease: holding epoch 1", "crashed as requested"} {
		if !strings.Contains(crashOut.String(), want) {
			t.Fatalf("crash output missing %q:\n%s", want, crashOut.String())
		}
	}

	resumed := leased
	resumed.crashEvents = 0
	var resOut bytes.Buffer
	if err := run(resumed, &resOut); err != nil {
		t.Fatal(err)
	}
	s := resOut.String()
	for _, want := range []string{"resumed from checkpoint", "lease: holding epoch 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("resume output missing %q:\n%s", want, s)
		}
	}
	resM := journalLine.FindStringSubmatch(s)
	if resM == nil {
		t.Fatalf("no journal line in resumed output:\n%s", s)
	}
	if resM[1] != refM[1] || resM[2] != refM[2] {
		t.Errorf("leased journal %s/%s differs from lease-free reference %s/%s",
			resM[1], resM[2], refM[1], refM[2])
	}
}

// TestContendFencingDrill runs the CLI's two-executor drill: executor a
// is killed mid-run, b takes the lease over, the woken zombie a is
// fenced, and the survivor's journal is bit-identical to the
// uncontended reference.
func TestContendFencingDrill(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	cfg := baseConfig(wf)
	cfg.dir = filepath.Join(base, "drill")
	cfg.lease = 1e9
	cfg.contend = true
	cfg.crashEvents = 10
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("contend drill failed: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"contend: reference (epoch 1)",
		"contend: executor a (epoch 1) killed after 10 journal events",
		"contend: executor b (epoch 2) took the run over",
		"contend: zombie a fenced",
		"contend: survivor journal identical to uncontended reference: true",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("drill output missing %q:\n%s", want, s)
		}
	}
}

// TestContendRefusesQuota pins that -contend rejects -quota: the drill
// runs several processes over one run, while a quota ledger meters one
// process, so the drill would otherwise run unmetered.
func TestContendRefusesQuota(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	cfg := baseConfig(wf)
	cfg.dir = filepath.Join(base, "drill")
	cfg.lease = 1e9
	cfg.contend = true
	cfg.crashEvents = 10
	cfg.retryPolicy = "fixed:1"
	cfg.quota = "ckpts:1"
	var out bytes.Buffer
	if err := run(cfg, &out); err == nil || !strings.Contains(err.Error(), "-quota") {
		t.Fatalf("-contend -quota: err %v, want a refusal naming -quota\n%s", err, out.String())
	}
}

// replicaFiles lists the checkpoint files one replica directory holds.
func replicaFiles(t *testing.T, dir string, replica int, runID string) []string {
	t.Helper()
	pat := filepath.Join(dir, fmt.Sprintf("r%d", replica), runID, "ckpt-*")
	files, err := filepath.Glob(pat)
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files match %s (%v)", pat, err)
	}
	return files
}

var syncLine = regexp.MustCompile(`sync run: (\d+) seqs, (\d+) replica copies written`)

// TestMaintenanceSync pins `chkptexec -sync`: a checkpoint deleted from
// one replica after a clean quorum run is copied back by one
// anti-entropy pass (no workflow needed), and a second pass is a no-op.
func TestMaintenanceSync(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	cfg := baseConfig(wf)
	cfg.dir = filepath.Join(base, "store")
	cfg.netLatency = 0.05
	cfg.netSeed = 9
	cfg.replicas = 3
	if err := run(cfg, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	// Lose one checkpoint from replica r2 behind the quorum's back.
	files := replicaFiles(t, cfg.dir, 2, "run")
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}

	maint := config{dir: cfg.dir, runID: "run", replicas: 3, netLatency: 0.05, netSeed: 9, syncMode: true}
	var out bytes.Buffer
	if err := run(maint, &out); err != nil {
		t.Fatalf("sync pass: %v\n%s", err, out.String())
	}
	m := syncLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no sync line:\n%s", out.String())
	}
	if copied, _ := strconv.Atoi(m[2]); copied < 1 {
		t.Errorf("sync copied %s replicas, want >= 1:\n%s", m[2], out.String())
	}
	if !strings.Contains(out.String(), "converged true") {
		t.Errorf("sync did not converge:\n%s", out.String())
	}

	// A second pass finds nothing to do.
	var again bytes.Buffer
	if err := run(maint, &again); err != nil {
		t.Fatal(err)
	}
	m = syncLine.FindStringSubmatch(again.String())
	if m == nil || m[2] != "0" {
		t.Errorf("second sync pass not a no-op:\n%s", again.String())
	}
	if len(replicaFiles(t, cfg.dir, 2, "run")) != len(replicaFiles(t, cfg.dir, 0, "run")) {
		t.Error("replica r2 still missing checkpoints after sync")
	}
}

// tearFile truncates a checkpoint file's tail so the CRC frame no
// longer decodes — the same torn-write shape the Checked codec detects.
func tearFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < 4 {
		t.Fatalf("reading %s: %v", path, err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceScrub pins `chkptexec -scrub`: one torn replica copy
// is detected and repaired from the clean quorum; tearing the same
// checkpoint on two of three replicas leaves no clean quorum and the
// scrub fails with the typed unrepairable error.
func TestMaintenanceScrub(t *testing.T) {
	base := t.TempDir()
	wf := chainWorkflow(t, base, 12)
	cfg := baseConfig(wf)
	cfg.dir = filepath.Join(base, "store")
	cfg.netLatency = 0.05
	cfg.netSeed = 9
	cfg.replicas = 3
	if err := run(cfg, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	tearFile(t, replicaFiles(t, cfg.dir, 1, "run")[0])
	maint := config{dir: cfg.dir, runID: "run", replicas: 3, netLatency: 0.05, netSeed: 9, scrub: true}
	var out bytes.Buffer
	if err := run(maint, &out); err != nil {
		t.Fatalf("scrub pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 corrupt, 1 repaired, 0 unrepairable") {
		t.Errorf("scrub did not repair the torn replica:\n%s", out.String())
	}

	// Rot on two of three replicas beats the R=2 clean quorum.
	tearFile(t, replicaFiles(t, cfg.dir, 0, "run")[0])
	tearFile(t, replicaFiles(t, cfg.dir, 1, "run")[0])
	err := run(maint, &bytes.Buffer{})
	if !errors.Is(err, store.ErrUnrepairable) {
		t.Errorf("scrub with no clean quorum = %v, want ErrUnrepairable", err)
	}
}

// TestMultiWriterFlagValidation pins the rejection matrix for the
// lease, contend, and maintenance flags.
func TestMultiWriterFlagValidation(t *testing.T) {
	wf := chainWorkflow(t, t.TempDir(), 8)

	lease := baseConfig(wf)
	lease.lease = 10
	if err := run(lease, &bytes.Buffer{}); err == nil {
		t.Error("-lease without -dir accepted")
	}

	contend := baseConfig(wf)
	contend.dir = t.TempDir()
	contend.contend = true
	if err := run(contend, &bytes.Buffer{}); err == nil {
		t.Error("-contend without -lease accepted")
	}

	if err := run(config{syncMode: true, runID: "run"}, &bytes.Buffer{}); err == nil {
		t.Error("-sync without -dir accepted")
	}
	if err := run(config{scrub: true, runID: "run", dir: t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("-scrub with a single replica accepted")
	}
	if err := run(config{syncMode: true, runID: "run", dir: t.TempDir(), replicas: 3, contend: true}, &bytes.Buffer{}); err == nil {
		t.Error("-sync combined with -contend accepted")
	}
}
