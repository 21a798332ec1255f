package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BenchmarkTrajectory runs every row of the table as a sub-benchmark,
// so go test -bench 'Trajectory/<regexp>' measures any subset.
func BenchmarkTrajectory(b *testing.B) {
	for _, r := range table() {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			r.bench(b)
		})
	}
}

// setBenchtime points testing.Benchmark at d for the rest of the test.
func setBenchtime(t *testing.T, d string) {
	t.Helper()
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", d); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", prev) })
}

func readReport(t *testing.T, path string) Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s is not valid JSON: %v", path, err)
	}
	return rep
}

// TestBenchtrajTableMatchesSnapshots pins the table to the checked-in
// snapshots: per file, unique row names, the same names and sizes.
func TestBenchtrajTableMatchesSnapshots(t *testing.T) {
	rows := table()
	for _, file := range files {
		want := map[string]int{}
		for _, m := range readReport(t, filepath.Join("..", "..", "BENCH_"+file+".json")).Results {
			want[m.Name] = m.N
		}
		got := map[string]bool{}
		for _, r := range rows {
			if r.file != file {
				continue
			}
			if got[r.name] {
				t.Errorf("%s: duplicate row %s", file, r.name)
			}
			got[r.name] = true
			if n, ok := want[r.name]; !ok {
				t.Errorf("%s: row %s is not in the snapshot", file, r.name)
			} else if n != r.n {
				t.Errorf("%s: row %s has n=%d, snapshot n=%d", file, r.name, r.n, n)
			}
		}
		for name := range want {
			if !got[name] {
				t.Errorf("%s: snapshot row %s is not in the table", file, name)
			}
		}
	}
}

// TestBenchtrajWritesReport runs a subset of the table through the
// runner into a directory -out creates, one row or more per file.
func TestBenchtrajWritesReport(t *testing.T) {
	zeroAlloc := func(name string) bool {
		return name == "sim_run_steady_state" || strings.HasPrefix(name, "superposed_campaign_")
	}
	var zero, rest []row
	for _, r := range table() {
		switch {
		case zeroAlloc(r.name):
			zero = append(zero, r)
		case r.name == "dag_lattice/n=7", strings.HasPrefix(r.name, "exec_run/store=mem n="):
			rest = append(rest, r)
		}
	}
	byName := map[string]Measurement{}
	measureRows := func(benchtime string, rows []row) {
		setBenchtime(t, benchtime)
		out := filepath.Join(t.TempDir(), "fresh")
		var stderr bytes.Buffer
		if code := run([]string{"-out", out}, rows, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
		for _, file := range files {
			path := filepath.Join(out, "BENCH_"+file+".json")
			if _, err := os.Stat(path); err != nil {
				continue
			}
			for _, m := range readReport(t, path).Results {
				if m.NsPerOp <= 0 || m.Iterations <= 0 {
					t.Errorf("%s: empty measurement %+v", m.Name, m)
				}
				byName[m.Name] = m
			}
		}
	}
	// Allocs/op is the process-wide malloc count over the timed ops
	// divided by their number, so the zero-alloc rows run a fixed ten
	// ops: at a 10ms budget the slowest runs one ~121 ms op, where a
	// single runtime allocation reads as 1/op.
	measureRows("10x", zero)
	measureRows("10ms", rest)
	if len(byName) != len(zero)+len(rest) {
		t.Errorf("wrote %d measurements, want %d", len(byName), len(zero)+len(rest))
	}
	// The simulation loops reuse one process: 0 allocs/op.
	for name, m := range byName {
		if zeroAlloc(name) && (m.AllocsPerOp != 0 || m.Iterations < 10) {
			t.Errorf("%s allocates %d/op over %d ops, want 0 over at least 10", name, m.AllocsPerOp, m.Iterations)
		}
	}
	if m := byName["dag_lattice/n=7"]; m.States <= 0 {
		t.Errorf("dag_lattice/n=7 records no peak state count: %+v", m)
	}
	// Linear checkpoint size: allocated bytes per task at n = 65536 stay
	// within 2× of n = 4096 (payloads carrying the journal prefix would
	// grow them about 16×).
	perTask := func(name string) float64 {
		m := byName[name]
		return float64(m.BytesPerOp) / float64(m.N)
	}
	if small, large := perTask("exec_run/store=mem n=4096"), perTask("exec_run/store=mem n=65536"); large > 2*small {
		t.Errorf("exec_run/store=mem allocates %.0f B/task at n=65536 vs %.0f at n=4096: not linear", large, small)
	}
}

// TestBenchtrajDirOutputs checks that an -out given with a trailing
// separator is taken as a directory and gets the default file name.
func TestBenchtrajDirOutputs(t *testing.T) {
	setBenchtime(t, "1ms")
	var subset []row
	for _, r := range table() {
		if r.name == "chain_dp_monotone/n=100" {
			subset = append(subset, r)
		}
	}
	if len(subset) != 1 {
		t.Fatalf("found %d rows named chain_dp_monotone/n=100, want 1", len(subset))
	}
	dir := filepath.Join(t.TempDir(), "fresh")
	var stderr bytes.Buffer
	if code := run([]string{"-out", dir + string(os.PathSeparator)}, subset, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_chain_dp.json")); err != nil {
		t.Errorf("default filename not created inside directory: %v", err)
	}
}

// TestBenchtrajFailingRowKeepsSnapshot pins that a failing row aborts
// the run, names itself, and leaves the previous snapshot untouched.
func TestBenchtrajFailingRowKeepsSnapshot(t *testing.T) {
	setBenchtime(t, "1x")
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_chain_dp.json")
	prev := []byte(`{"results": []}` + "\n")
	if err := os.WriteFile(path, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []row{
		{file: "chain_dp", name: "ok_row", bench: func(b *testing.B) {}},
		{file: "chain_dp", name: "broken_row/n=3", n: 3, bench: func(b *testing.B) { b.Fatal("injected failure") }},
		{file: "sim", name: "later_row", bench: func(b *testing.B) {}},
	}
	var stderr bytes.Buffer
	if code := run([]string{"-out", dir}, rows, &stderr); code == 0 {
		t.Fatalf("failing row exited 0, stderr:\n%s", stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"broken_row/n=3"`) ||
		!strings.Contains(msg, "-bench 'Trajectory/^broken_row$/^n=3$'") {
		t.Errorf("stderr does not name the row and its go test command:\n%s", msg)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Errorf("snapshot changed: %q, %v", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed run left %d files, want only the previous snapshot", len(entries))
	}
}

// TestBenchtrajDiff pins the snapshot comparator: ns/op regressions
// beyond 25%, allocs/op rises beyond 2% and one alloc, and missing
// benchmarks warn; improvements and small movements pass; the exit code
// stays 0 (the trajectory warns, it does not gate).
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
		{Name: "a", NsPerOp: 100, AllocsPerOp: 1000},
		{Name: "b", NsPerOp: 100},
		{Name: "c", NsPerOp: 100, AllocsPerOp: 100},
		{Name: "gone", NsPerOp: 100},
	}})
	fresh := write("new.json", Report{Results: []Measurement{
		{Name: "a", NsPerOp: 110, AllocsPerOp: 1003}, // +10% ns, +0.3% allocs: fine
		{Name: "b", NsPerOp: 200},                    // 2x: regression
		{Name: "c", NsPerOp: 90, AllocsPerOp: 110},   // +10% allocs: regression
		{Name: "new", NsPerOp: 50},                   // no snapshot: informational
	}})
	var stderr bytes.Buffer
	if code := run([]string{"-diff", old, fresh}, nil, &stderr); code != 0 {
		t.Fatalf("diff exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	for _, want := range []string{
		"::warning title=benchtraj regression::b regressed 2.00x",
		"::warning title=benchtraj regression::c allocs/op rose 100 → 110",
		"::warning title=benchtraj regression::gone present in snapshot",
		"3 warning(s)",
		"(no snapshot)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "::warning title=benchtraj regression::a ") {
		t.Errorf("diff flagged movements within the spread as a regression:\n%s", out)
	}
	// Unreadable inputs are a hard error.
	if code := run([]string{"-diff", filepath.Join(dir, "missing.json"), fresh}, nil, &stderr); code != 2 {
		t.Errorf("missing old file: exit %d, want 2", code)
	}
	if code := run([]string{"-diff", old}, nil, &stderr); code != 2 {
		t.Errorf("one operand: exit %d, want 2", code)
	}
}

// TestBenchtrajBadFlags pins the two-flag surface: -out and -diff.
func TestBenchtrajBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sizes", "100"},
		{"-simout", "sim.json"},
		{"-benchtime", "1s"},
		{"-cpuprofile", "cpu.pprof"},
		{"stray"},
	} {
		var stderr bytes.Buffer
		if code := run(args, nil, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}
