package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchtrajWritesReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	simOut := filepath.Join(dir, "bench_sim.json")
	dagOut := filepath.Join(dir, "bench_dag.json")
	execOut := filepath.Join(dir, "bench_exec.json")
	var stderr bytes.Buffer
	if code := run([]string{"-out", out, "-simout", simOut, "-dagout", dagOut, "-execout", execOut, "-benchtime", "1ms", "-frontier=false",
		"-sizes", "50,100", "-simprocs", "1,64", "-dagsizes", "7,10"}, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// Three solver arms × two sizes + the sim steady-state loop.
	if len(rep.Results) != 7 {
		t.Fatalf("got %d results, want 7: %+v", len(rep.Results), rep.Results)
	}
	byName := map[string]Measurement{}
	for _, m := range rep.Results {
		if m.NsPerOp <= 0 || m.Iterations <= 0 {
			t.Errorf("%s: empty measurement %+v", m.Name, m)
		}
		byName[m.Name] = m
	}
	for _, name := range []string{"chain_dp_monotone/n=100", "chain_dp_kernel/n=100", "chain_dp_dense/n=100"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing %s", name)
		}
	}
	if m, ok := byName["sim_run_steady_state"]; !ok {
		t.Error("missing sim_run_steady_state")
	} else if m.AllocsPerOp != 0 {
		t.Errorf("sim steady state allocates %d/op, want 0", m.AllocsPerOp)
	}

	simData, err := os.ReadFile(simOut)
	if err != nil {
		t.Fatal(err)
	}
	var simRep Report
	if err := json.Unmarshal(simData, &simRep); err != nil {
		t.Fatalf("sim output is not valid JSON: %v", err)
	}
	// Scan+heap × two platform sizes + two Weibull heap sizes +
	// CRN/independent + three sharded splits + adaptive on/off + sort/P².
	if len(simRep.Results) != 15 {
		t.Fatalf("got %d sim results, want 15: %+v", len(simRep.Results), simRep.Results)
	}
	simByName := map[string]Measurement{}
	for _, m := range simRep.Results {
		if m.NsPerOp <= 0 || m.Iterations <= 0 {
			t.Errorf("%s: empty measurement %+v", m.Name, m)
		}
		simByName[m.Name] = m
	}
	for _, name := range []string{
		"superposed_campaign_scan/p=64", "superposed_campaign_heap/p=64",
		"superposed_campaign_heap/law=weibull,p=1000", "superposed_campaign_heap/law=weibull,p=65536",
		"campaign_crn/s=2", "campaign_independent/s=2",
		"campaign_sharded/shards=1", "campaign_sharded/shards=4", "campaign_sharded/shards=16",
		"campaign_adaptive/mode=off", "campaign_adaptive/mode=on",
		"quantiles_sort/n=1000000", "quantiles_p2/n=1000000",
	} {
		if _, ok := simByName[name]; !ok {
			t.Errorf("missing %s", name)
		}
	}
	// The superposed campaign loops reuse one process: 0 allocs/op, like
	// the steady-state loop.
	for _, name := range []string{
		"superposed_campaign_scan/p=64", "superposed_campaign_heap/p=64",
		"superposed_campaign_heap/law=weibull,p=1000", "superposed_campaign_heap/law=weibull,p=65536",
	} {
		if m := simByName[name]; m.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d/op, want 0", name, m.AllocsPerOp)
		}
	}

	dagData, err := os.ReadFile(dagOut)
	if err != nil {
		t.Fatal(err)
	}
	var dagRep Report
	if err := json.Unmarshal(dagData, &dagRep); err != nil {
		t.Fatalf("dag output is not valid JSON: %v", err)
	}
	dagByName := map[string]Measurement{}
	for _, m := range dagRep.Results {
		if m.NsPerOp <= 0 || m.Iterations <= 0 {
			t.Errorf("%s: empty measurement %+v", m.Name, m)
		}
		dagByName[m.Name] = m
	}
	// -dagsizes 7,10 → in-trees of 7 and 10 tasks: lattice + factorial
	// for both (small order counts), plus the two portfolio arms.
	for _, name := range []string{
		"dag_lattice/n=7", "dag_factorial/n=7",
		"dag_lattice/n=10", "dag_factorial/n=10",
		"dag_portfolio/workers=1", "dag_portfolio/workers=4",
	} {
		if _, ok := dagByName[name]; !ok {
			t.Errorf("missing %s (have %v)", name, dagRep.Results)
		}
	}
	for _, name := range []string{"dag_lattice/n=7", "dag_lattice/n=10"} {
		if m := dagByName[name]; m.States <= 0 {
			t.Errorf("%s records no peak state count", name)
		}
	}

	execData, err := os.ReadFile(execOut)
	if err != nil {
		t.Fatal(err)
	}
	var execRep Report
	if err := json.Unmarshal(execData, &execRep); err != nil {
		t.Fatalf("exec output is not valid JSON: %v", err)
	}
	execByName := map[string]Measurement{}
	for _, m := range execRep.Results {
		if m.NsPerOp <= 0 || m.Iterations <= 0 {
			t.Errorf("%s: empty measurement %+v", m.Name, m)
		}
		execByName[m.Name] = m
	}
	// Three executor rows (bare + two stores), two mem-store scaling
	// rows, six raw Save rows (the networked remote/quorum stacks and the
	// lease guard included), three degraded-store resilience rows, two
	// partition-tolerance rows, and the anti-entropy row.
	for _, name := range []string{
		"exec_run/store=none", "exec_run/store=mem", "exec_run/store=file",
		"exec_run/store=mem n=4096", "exec_run/store=mem n=65536",
		"store_save/kind=mem", "store_save/kind=file", "store_save/kind=quota",
		"store_save/kind=remote", "store_save/kind=quorum", "store_save/kind=lease",
		"exec_adaptive/replan", "exec_adaptive/run mode=static", "exec_adaptive/run mode=adaptive",
		"exec_partition/store=remote", "exec_partition/store=quorum",
		"exec_sync/store=quorum sync-every=3",
	} {
		if _, ok := execByName[name]; !ok {
			t.Errorf("missing %s (have %v)", name, execRep.Results)
		}
	}
	if len(execRep.Results) != 17 {
		t.Errorf("got %d exec results, want 17", len(execRep.Results))
	}
	// Linear checkpoint size: allocated bytes per task at n = 65536 stay
	// within 2× of n = 4096 (payloads carrying the journal prefix would
	// grow them about 16×).
	perTask := func(name string) float64 {
		m := execByName[name]
		return float64(m.BytesPerOp) / float64(m.N)
	}
	if small, large := perTask("exec_run/store=mem n=4096"), perTask("exec_run/store=mem n=65536"); large > 2*small {
		t.Errorf("exec_run/store=mem allocates %.0f B/task at n=65536 vs %.0f at n=4096: not linear", large, small)
	}
}

func TestBenchtrajSkipsSimReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var stderr bytes.Buffer
	if code := run([]string{"-out", out, "-simout", "", "-dagout", "", "-execout", "", "-benchtime", "1ms", "-frontier=false", "-sizes", "50"}, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("empty -simout/-dagout must skip those trajectories; dir has %d files", len(entries))
	}
}

// TestBenchtrajDirOutputs drives the "-out ./"-style mode: directory
// paths keep the default filenames inside them.
func TestBenchtrajDirOutputs(t *testing.T) {
	dir := t.TempDir()
	var stderr bytes.Buffer
	if code := run([]string{"-out", dir + string(os.PathSeparator), "-simout", "", "-dagout", "", "-execout", "", "-benchtime", "1ms", "-frontier=false", "-sizes", "50"}, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_chain_dp.json")); err != nil {
		t.Errorf("default filename not created inside directory: %v", err)
	}
}

// TestBenchtrajProfiles checks -cpuprofile/-memprofile produce files.
func TestBenchtrajProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stderr bytes.Buffer
	if code := run([]string{"-out", filepath.Join(dir, "b.json"), "-simout", "", "-dagout", "", "-execout", "",
		"-benchtime", "1ms", "-frontier=false", "-sizes", "50", "-cpuprofile", cpu, "-memprofile", mem}, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestBenchtrajDiff pins the snapshot comparator: regressions beyond
// 25% and missing benchmarks warn, improvements and small movements
// pass, and the exit code stays 0 (the trajectory warns, it does not
// gate).
func TestBenchtrajDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep Report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", Report{Results: []Measurement{
		{Name: "a", NsPerOp: 100},
		{Name: "b", NsPerOp: 100},
		{Name: "gone", NsPerOp: 100},
	}})
	fresh := write("new.json", Report{Results: []Measurement{
		{Name: "a", NsPerOp: 110},  // +10%: fine
		{Name: "b", NsPerOp: 200},  // 2x: regression
		{Name: "new", NsPerOp: 50}, // no snapshot: informational
	}})
	var stderr bytes.Buffer
	if code := run([]string{"-diff", old, fresh}, &stderr); code != 0 {
		t.Fatalf("diff exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	for _, want := range []string{
		"::warning title=benchtraj regression::b regressed 2.00x",
		"::warning title=benchtraj regression::gone present in snapshot",
		"2 warning(s)",
		"(no snapshot)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "::warning title=benchtraj regression::a ") {
		t.Errorf("diff flagged a 10%% movement as a regression:\n%s", out)
	}
	// Unreadable inputs are a hard error.
	if code := run([]string{"-diff", filepath.Join(dir, "missing.json"), fresh}, &stderr); code != 2 {
		t.Errorf("missing old file: exit %d, want 2", code)
	}
	if code := run([]string{"-diff", old}, &stderr); code != 2 {
		t.Errorf("one operand: exit %d, want 2", code)
	}
}

func TestBenchtrajBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-sizes", "0"}, &stderr); code != 2 {
		t.Errorf("bad size: exit %d, want 2", code)
	}
	if code := run([]string{"-sizes", "abc"}, &stderr); code != 2 {
		t.Errorf("bad size: exit %d, want 2", code)
	}
	if code := run([]string{"-simprocs", "-3"}, &stderr); code != 2 {
		t.Errorf("bad simprocs: exit %d, want 2", code)
	}
}
