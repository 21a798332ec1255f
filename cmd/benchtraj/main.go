// Command benchtraj records the benchmark trajectory: it runs every row
// of one named-benchmark table (table.go) and writes the measurements
// as four JSON snapshots — BENCH_chain_dp.json (the chain placement
// arms of Algorithm 1 and the other planning solvers), BENCH_sim.json
// (the Monte-Carlo backbone), BENCH_dag.json (the exact DAG solvers)
// and BENCH_exec.json (the crash-safe runtime and its store layers).
// Snapshots are checked in at the repository root, so the repo carries
// its own perf history; the CI bench job regenerates them and diffs
// fresh results against the snapshots (see -diff).
//
// Usage:
//
//	benchtraj                          # write the four snapshots into the current directory
//	benchtraj -out fresh/              # write them into fresh/ (created if missing)
//	benchtraj -diff old.json new.json  # compare two snapshots, warn on ns/op and allocs/op regressions
//
// The same rows are the sub-benchmarks of BenchmarkTrajectory, so go
// test measures any subset, with its -benchtime, -count, -cpuprofile and
// -memprofile:
//
//	go test -run '^$' -bench 'Trajectory/superposed' -benchtime 50ms ./cmd/benchtraj
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fsx"
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

// benchtime is the measurement budget per row.
const benchtime = "500ms"

func main() {
	// testing.Benchmark sizes its runs from the -test.benchtime flag.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], table(), os.Stderr))
}

func run(args []string, rows []row, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtraj", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", ".", "directory the BENCH_*.json snapshots are written into (created if missing)")
	diffMode := fs.Bool("diff", false, "compare two snapshot files (old new) instead of benchmarking; warns on >25% ns/op and >2% allocs/op regressions")
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
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchtraj: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchtraj: %v\n", err)
		return 1
	}
	for _, file := range files {
		report := Report{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Unix: time.Now().Unix()}
		for _, r := range rows {
			if r.file != file {
				continue
			}
			m, err := measure(r)
			if err != nil {
				fmt.Fprintf(stderr, "benchtraj: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "%-36s %12.0f ns/op %8d allocs/op\n", m.Name, m.NsPerOp, m.AllocsPerOp)
			report.Results = append(report.Results, m)
		}
		if len(report.Results) == 0 {
			continue
		}
		path := filepath.Join(*out, "BENCH_"+file+".json")
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = fsx.AtomicWriteFile(path, append(data, '\n'))
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchtraj: write %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(stderr, "benchtraj: wrote %d measurements to %s\n", len(report.Results), path)
	}
	return 0
}

// measure runs one row under testing.Benchmark. A row that fails
// reports N = 0; testing.Benchmark discards its message, so the error
// names the go test command that prints it.
func measure(r row) (Measurement, error) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		r.bench(b)
	})
	if res.N == 0 {
		return Measurement{}, fmt.Errorf("row %q failed; for its message run: go test -run '^$' -bench '%s' ./cmd/benchtraj",
			r.name, benchPattern(r.name))
	}
	return Measurement{
		Name:        r.name,
		N:           r.n,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		States:      int64(res.Extra["states"]),
	}, nil
}

// benchPattern is the -bench pattern selecting exactly the row's
// sub-benchmark: go test matches each '/'-separated level on its own
// and spells spaces as underscores.
func benchPattern(name string) string {
	levels := strings.Split(strings.ReplaceAll(name, " ", "_"), "/")
	for i, l := range levels {
		levels[i] = "^" + regexp.QuoteMeta(l) + "$"
	}
	return "Trajectory/" + strings.Join(levels, "/")
}

// Regression thresholds for -diff: ns/op more than 25% slower than the
// snapshot, or allocs/op up by more than 2% and more than one alloc
// (run-to-run allocs/op spread is within 0.3%; ns/op moves with the
// host, so allocs are the comparable figure across snapshots).
const (
	regressionThreshold = 1.25
	allocsThreshold     = 1.02
)

// diffReports compares two trajectory files by benchmark name and
// reports ns/op and allocs/op movements. Regressions are emitted as
// GitHub-annotation warnings (plain lines elsewhere read the same); the
// exit code stays 0 — the trajectory warns, it does not gate — with 2
// reserved for unreadable inputs.
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
		if cur.AllocsPerOp > prev.AllocsPerOp+1 && float64(cur.AllocsPerOp) > allocsThreshold*float64(prev.AllocsPerOp) {
			regressions++
			fmt.Fprintf(stderr, "::warning title=benchtraj regression::%s allocs/op rose %d → %d\n",
				name, prev.AllocsPerOp, cur.AllocsPerOp)
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
