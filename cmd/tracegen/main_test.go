package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

func TestGenerateAllLaws(t *testing.T) {
	// run() writes to stdout; redirect to a pipe-backed file.
	for _, law := range []string{"exponential", "weibull", "lognormal"} {
		law := law
		t.Run(law, func(t *testing.T) {
			old := os.Stdout
			tmp, err := os.CreateTemp(t.TempDir(), "trace")
			if err != nil {
				t.Fatal(err)
			}
			os.Stdout = tmp
			err = run(law, 50, 0.7, 4, 5000, 1, "", "")
			os.Stdout = old
			if err != nil {
				t.Fatalf("generate %s: %v", law, err)
			}
			info, err := tmp.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() == 0 {
				t.Error("no trace written")
			}
			tmp.Close()
		})
	}
}

func TestFitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	tmp, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = tmp
	err = run("weibull", 50, 0.7, 8, 50000, 2, "", "")
	os.Stdout = old
	tmp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := run("", 0, 0, 0, 0, 0, path, ""); err != nil {
		t.Fatalf("fit: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("cauchy", 50, 0.7, 4, 1000, 1, "", ""); err == nil {
		t.Error("unknown law should fail")
	}
	if err := run("", 0, 0, 0, 0, 0, filepath.Join(t.TempDir(), "missing.csv"), ""); err == nil {
		t.Error("missing fit file should fail")
	}
	// Non-finite parameters once generated events until memory ran out.
	nan, inf := math.NaN(), math.Inf(1)
	out := filepath.Join(t.TempDir(), "t.csv")
	for _, c := range []struct {
		law                  string
		mtbf, shape, horizon float64
	}{
		{"weibull", 50, nan, 1000},
		{"weibull", inf, 0.7, 1000},
		{"lognormal", nan, 0.7, 1000},
		{"lognormal", 50, inf, 1000},
		{"exponential", 50, 0.7, nan},
		{"exponential", 50, 0.7, inf},
	} {
		if err := run(c.law, c.mtbf, c.shape, 4, c.horizon, 1, "", out); err == nil {
			t.Errorf("%s mtbf=%v shape=%v horizon=%v accepted", c.law, c.mtbf, c.shape, c.horizon)
		}
	}
}

// TestGenerateToFile covers -out: the trace lands in the named file and
// reads back through the trace parser.
func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := run("exponential", 50, 0.7, 4, 5000, 3, "", path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes != 4 || len(tr.Events) == 0 {
		t.Errorf("trace = %d nodes, %d events, want 4 nodes and some events", tr.Nodes, len(tr.Events))
	}
	if err := run("exponential", 50, 0.7, 4, 5000, 3, "", filepath.Join(t.TempDir(), "no", "such", "dir", "t.csv")); err == nil {
		t.Error("uncreatable -out path accepted")
	}
}
