package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rng"
)

func writeChain(t *testing.T, n int) string {
	t.Helper()
	g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wf.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// base returns the legacy flag set the original positional CLI took.
func base(wfPath string) config {
	return config{
		wfPath: wfPath, law: "exponential", lambda: 0.05, shape: 0.7,
		procs: 1, downtime: 0.25, runs: 2000, seed: 1, shard: -1,
		shards: 1,
	}
}

func TestRunExponential(t *testing.T) {
	cfg := base(writeChain(t, 5))
	if err := run(cfg); err != nil {
		t.Fatalf("exponential sim: %v", err)
	}
}

func TestRunWeibull(t *testing.T) {
	cfg := base(writeChain(t, 5))
	cfg.law, cfg.lambda, cfg.mtbf, cfg.procs, cfg.runs = "weibull", 0, 80, 4, 1000
	if err := run(cfg); err != nil {
		t.Fatalf("weibull sim: %v", err)
	}
}

func TestRunLogNormal(t *testing.T) {
	cfg := base(writeChain(t, 4))
	cfg.law, cfg.lambda, cfg.mtbf, cfg.shape, cfg.procs, cfg.runs = "lognormal", 0, 80, 0.5, 2, 1000
	if err := run(cfg); err != nil {
		t.Fatalf("lognormal sim: %v", err)
	}
}

func TestRunReplaysPlanOnDAG(t *testing.T) {
	// A non-chain workflow becomes simulatable once a plan (with a full
	// linearization) is supplied.
	g, err := dag.ForkJoin(2, 2, dag.DefaultWeights(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "wf.json")
	wf, err := os.Create(wfPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(wf); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(order, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	planPath := filepath.Join(dir, "plan.json")
	pf, err := os.Create(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WritePlan(pf, plan); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	cfg := base(wfPath)
	cfg.runs, cfg.planPath = 1000, planPath
	if err := run(cfg); err != nil {
		t.Fatalf("replaying plan on DAG: %v", err)
	}
	// A plan that does not fit the workflow must be rejected.
	short, err := core.NewPlan([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bad.json")
	bf, err := os.Create(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WritePlan(bf, short); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	cfg.runs, cfg.planPath = 100, badPath
	if err := run(cfg); err == nil {
		t.Error("mismatched plan should be rejected")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeChain(t, 4)
	cfg := base(path)
	cfg.law, cfg.lambda, cfg.runs = "weibull", 0, 100
	if err := run(cfg); err == nil {
		t.Error("weibull without mtbf should fail")
	}
	cfg = base(path)
	cfg.law, cfg.runs = "cauchy", 100
	if err := run(cfg); err == nil {
		t.Error("unknown law should fail")
	}
	cfg = base(filepath.Join(t.TempDir(), "nope.json"))
	if err := run(cfg); err == nil {
		t.Error("missing file should fail")
	}
	// Non-chain workflow is rejected.
	g, err := dag.ForkJoin(2, 1, dag.DefaultWeights(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	dagPath := filepath.Join(t.TempDir(), "dag.json")
	f, err := os.Create(dagPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cfg = base(dagPath)
	cfg.runs = 100
	if err := run(cfg); err == nil {
		t.Error("non-chain workflow should fail")
	}
}

// TestCampaignShardsAcrossInvocations runs each shard in its own run()
// call against a shared campaign directory — as separate machines would
// — then merges with a -merge invocation. The campaign it prints,
// quantile line included, must be byte for byte what a fresh -shards 3
// run and a -shards 1 run print. The merge knows the candidates only by
// index, so its labels are mapped back to the names first.
func TestCampaignShardsAcrossInvocations(t *testing.T) {
	path := writeChain(t, 5)
	dir := t.TempDir()
	cfg := base(path)
	cfg.runs, cfg.candidates, cfg.shards, cfg.resumeDir = 256, "dp,never", 3, dir
	for s := 0; s < 3; s++ {
		c := cfg
		c.shard = s
		runCaptured(t, c)
	}
	merged := runCaptured(t, config{resumeDir: dir, mergeOnly: true, shard: -1})

	fresh := cfg
	fresh.resumeDir = ""
	want := runCaptured(t, fresh)
	one := fresh
	one.shards = 1
	if got := runCaptured(t, one); got != want {
		t.Errorf("-shards 1 printed\n%s\n-shards 3 printed\n%s", got, want)
	}
	campaign := func(out string) string {
		i := strings.Index(out, "\nCRN campaign:")
		if i < 0 {
			t.Fatalf("no campaign in output\n%s", out)
		}
		return out[i:]
	}
	labels := strings.NewReplacer("cand0     ", "dp        ", "cand1     ", "never     ", "Δ(cand1 − cand0)", "Δ(never − dp)")
	if got := labels.Replace(campaign(merged)); got != campaign(want) {
		t.Errorf("-merge printed\n%s\nfresh campaign printed\n%s", got, campaign(want))
	}
	if !strings.Contains(want, "p99") {
		t.Errorf("campaign output has no quantile line:\n%s", want)
	}
}

// runCaptured runs cfg with standard output sent to a file and returns
// what it printed.
func runCaptured(t *testing.T, cfg config) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	old := os.Stdout
	os.Stdout = out
	err = run(cfg)
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// plantTemps writes the temp files a writer killed mid-write leaves in
// a campaign directory and returns their paths.
func plantTemps(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	for _, name := range []string{".tmp-4242", ".tmp-killed"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(`{"fingerprint":`), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// TestCampaignRemovesKilledTemps: a -resume that runs every shard and a
// -merge both clear the temp files killed writers left in the campaign
// directory, and print what a clean directory prints; a -shard resume
// leaves them, since another shard's process may be writing one.
func TestCampaignRemovesKilledTemps(t *testing.T) {
	path := writeChain(t, 5)
	cfg := base(path)
	cfg.runs, cfg.candidates, cfg.shards = 256, "dp,never", 3
	gone := func(stage string, paths []string) {
		t.Helper()
		for _, p := range paths {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("%s left %s (stat: %v)", stage, filepath.Base(p), err)
			}
		}
	}

	clean := cfg
	clean.resumeDir = t.TempDir()
	wantRun := runCaptured(t, clean)
	wantMerge := runCaptured(t, config{resumeDir: clean.resumeDir, mergeOnly: true, shard: -1})
	if wantRun == "" || wantMerge == "" {
		t.Fatal("the clean campaign printed nothing to compare against")
	}

	dirty := cfg
	dirty.resumeDir = t.TempDir()
	planted := plantTemps(t, dirty.resumeDir)
	if got := runCaptured(t, dirty); got != wantRun {
		t.Errorf("resume over temps printed\n%s\nclean run printed\n%s", got, wantRun)
	}
	gone("resume of every shard", planted)
	planted = plantTemps(t, dirty.resumeDir)
	if got := runCaptured(t, config{resumeDir: dirty.resumeDir, mergeOnly: true, shard: -1}); got != wantMerge {
		t.Errorf("merge over temps printed\n%s\nclean merge printed\n%s", got, wantMerge)
	}
	gone("merge", planted)

	one := cfg
	one.resumeDir, one.shard = t.TempDir(), 1
	planted = plantTemps(t, one.resumeDir)
	runCaptured(t, one)
	for _, p := range planted {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("-shard resume removed %s: %v", filepath.Base(p), err)
		}
	}
}

// TestCampaignFingerprintMismatchLoud: a campaign directory refuses
// invocations whose parameters disagree with its manifest.
func TestCampaignFingerprintMismatchLoud(t *testing.T) {
	path := writeChain(t, 5)
	dir := t.TempDir()
	cfg := base(path)
	cfg.runs, cfg.candidates, cfg.shards, cfg.resumeDir, cfg.shard = 256, "dp,never", 2, dir, 0
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*config){
		"seed":       func(c *config) { c.seed = 99 },
		"runs":       func(c *config) { c.runs = 512 },
		"candidates": func(c *config) { c.candidates = "dp,always" },
		"downtime":   func(c *config) { c.downtime = 0.5 },
	} {
		c := cfg
		mut(&c)
		err := run(c)
		if err == nil || !strings.Contains(err.Error(), "already holds") {
			t.Errorf("%s mismatch: error %v, want manifest refusal", name, err)
		}
	}
}

func TestCampaignAdaptive(t *testing.T) {
	path := writeChain(t, 5)
	cfg := base(path)
	cfg.runs, cfg.candidates, cfg.ciWidth = 4000, "dp,never", 5
	if err := run(cfg); err != nil {
		t.Fatalf("adaptive campaign: %v", err)
	}
}

func TestCampaignFlagErrors(t *testing.T) {
	path := writeChain(t, 5)
	for name, tc := range map[string]struct {
		mut  func(*config)
		want string
	}{
		"shard without resume": {func(c *config) { c.shard = 0; c.shards = 2 }, "-resume"},
		"merge without resume": {func(c *config) { c.mergeOnly = true }, "-resume"},
		"ci-width with resume": {func(c *config) { c.ciWidth = 1; c.resumeDir = "x"; c.candidates = "dp,never" }, "-resume"},
		"unknown candidate":    {func(c *config) { c.candidates = "dp,magic" }, "unknown candidate"},
		"bad every":            {func(c *config) { c.candidates = "every:0" }, "every:k"},
	} {
		cfg := base(path)
		cfg.runs = 100
		tc.mut(&cfg)
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", name, err, tc.want)
		}
	}
}
