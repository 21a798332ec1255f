package repro_test

// One benchmark per reproduction experiment (see DESIGN.md's
// per-experiment index). Each benchmark executes the corresponding
// experiment from internal/expt in quick mode through the serial
// reference executor, so
//
//	go test -bench=. -benchmem
//
// regenerates every table of the evaluation; cmd/chkptbench runs the same
// experiments through the parallel engine with the full Monte-Carlo
// budget and prints the tables recorded in EXPERIMENTS.md. The
// BenchmarkSuite* and BenchmarkE11WeibullWorkers* benchmarks measure the
// engine itself: serial vs worker-pool execution of the same scenarios
// (see EXPERIMENTS.md for the recorded comparison). Micro-benchmarks
// of the solvers, the simulation loop and the runtime are the rows of
// cmd/benchtraj's table:
//
//	go test -run '^$' -bench 'Trajectory/' ./cmd/benchtraj

import (
	"io"
	"testing"

	"repro/internal/expt"
	"repro/internal/expt/engine"
	"repro/internal/expt/render"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := expt.Config{Seed: 7, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := expt.Execute(cfg, e)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		for _, t := range tables {
			if err := render.Text(io.Discard, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE1FormulaValidation(b *testing.B) { runExperiment(b, "E1") }
func BenchmarkE2Components(b *testing.B)        { runExperiment(b, "E2") }
func BenchmarkE3Comparators(b *testing.B)       { runExperiment(b, "E3") }
func BenchmarkE4Convexity(b *testing.B)         { runExperiment(b, "E4") }
func BenchmarkE5Reduction(b *testing.B)         { runExperiment(b, "E5") }
func BenchmarkE6ChainOptimality(b *testing.B)   { runExperiment(b, "E6") }
func BenchmarkE7DPScaling(b *testing.B)         { runExperiment(b, "E7") }
func BenchmarkE8Strategies(b *testing.B)        { runExperiment(b, "E8") }
func BenchmarkE9Platform(b *testing.B)          { runExperiment(b, "E9") }
func BenchmarkE10Downtime(b *testing.B)         { runExperiment(b, "E10") }
func BenchmarkE11Weibull(b *testing.B)          { runExperiment(b, "E11") }
func BenchmarkE12Extensions(b *testing.B)       { runExperiment(b, "E12") }
func BenchmarkE13DPKernelScaling(b *testing.B)  { runExperiment(b, "E13") }
func BenchmarkE14MCScaling(b *testing.B)        { runExperiment(b, "E14") }
func BenchmarkE15LatticeScaling(b *testing.B)   { runExperiment(b, "E15") }

// Engine benchmarks: the full quick-mode suite and the heaviest
// Monte-Carlo experiment (E11, four simulation campaigns per row) at
// different worker counts. On a multi-core host the Workers>1 variants
// show the fan-out speedup; on a single-core host they bound the
// engine's scheduling overhead instead.

func benchSuite(b *testing.B, workers int) {
	b.Helper()
	cfg := expt.Config{Seed: 7, Quick: true}
	r := engine.Runner{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := r.RunAll(cfg)
		if err := engine.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteWorkers1(b *testing.B) { benchSuite(b, 1) }
func BenchmarkSuiteWorkers4(b *testing.B) { benchSuite(b, 4) }
func BenchmarkSuiteWorkers8(b *testing.B) { benchSuite(b, 8) }

func benchE11Workers(b *testing.B, workers int) {
	b.Helper()
	e, ok := expt.ByID("E11")
	if !ok {
		b.Fatal("E11 not registered")
	}
	cfg := expt.Config{Seed: 7, Quick: true}
	r := engine.Runner{Workers: workers}
	scens := []expt.Scenario{e}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := r.Run(cfg, scens)
		if err := engine.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11WeibullWorkers1(b *testing.B) { benchE11Workers(b, 1) }
func BenchmarkE11WeibullWorkers4(b *testing.B) { benchE11Workers(b, 4) }
