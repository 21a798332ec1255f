// Moldable: the second extension of Section 6 — tasks that can run on any
// number of processors. Instantiates Equation 6 under the Section 3
// workload/overhead models and shows how the failure-aware optimal
// processor count differs from the failure-blind one.
package main

import (
	"fmt"
	"log"

	"repro/internal/expectation"
	"repro/internal/moldable"
	"repro/internal/platform"
)

func main() {
	pl := platform.Platform{Processors: 1 << 16, LambdaProc: 2e-6, Downtime: 1}
	fmt.Printf("platform: up to %d processors, per-node MTBF %.0f h, downtime %g h\n\n",
		pl.Processors, 1/pl.LambdaProc, pl.Downtime)

	task := moldable.Task{
		Name:           "LU factorization",
		WTotal:         5e4, // 50k core-hours
		BaseCheckpoint: 25,  // full-memory dump through shared storage
		Scenario: platform.Scenario{
			Workload: platform.NumericalKernel{Gamma: 0.03},
			Overhead: platform.ConstantOverhead{},
		},
	}

	// E(p) curve: failure-free time shrinks with p, but λ(p) = p·λproc
	// grows and the constant checkpoint cost does not shrink.
	fmt.Println("E(p) for the numerical kernel (constant checkpoint overhead):")
	fmt.Printf("%-10s %-14s %-14s %s\n", "p", "W(p) (h)", "E(p) (h)", "waste %")
	for p := 64; p <= pl.Processors; p *= 4 {
		wp := task.Scenario.Workload.Time(task.WTotal, p)
		e, err := task.ExpectedTime(pl, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %-14.4g %-14.4g %.2f\n", p, wp, e, (e/wp-1)*100)
	}

	a, err := moldable.OptimalProcessors(task, pl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfailure-aware optimum: p* = %d, E = %.4g h, speedup %.0fx over p=1\n",
		a.Processors, a.Expected, a.Speedup)

	// The failure-blind choice (minimize W(p)) takes every processor —
	// and pays for it.
	eMax, err := task.ExpectedTime(pl, pl.Processors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-blind choice (p = %d): E = %.4g h, %.1f%% slower than p*\n",
		pl.Processors, eMax, (eMax/a.Expected-1)*100)

	// A pipeline of moldable stages: each ends in a checkpoint (renewal
	// point), so per-stage optimization is globally optimal.
	fmt.Println("\nmoldable pipeline:")
	pipe := []moldable.Task{
		{Name: "load+scatter", WTotal: 5e3, BaseCheckpoint: 4,
			Scenario: platform.Scenario{Workload: platform.PerfectlyParallel{}, Overhead: platform.ProportionalOverhead{}}},
		task,
		{Name: "solve+gather", WTotal: 1.2e4, BaseCheckpoint: 8,
			Scenario: platform.Scenario{Workload: platform.Amdahl{Gamma: 5e-4}, Overhead: platform.ConstantOverhead{}}},
	}
	seq, err := moldable.PlanSequence(pipe, pl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %-22s %-14s %-10s %s\n", "stage", "workload model", "overhead", "p*", "E (h)")
	for i, alloc := range seq.Allocations {
		fmt.Printf("%-16s %-22s %-14s %-10d %.4g\n",
			pipe[i].Name, pipe[i].Scenario.Workload.Name(), pipe[i].Scenario.Overhead.Name(),
			alloc.Processors, alloc.Expected)
	}
	fmt.Printf("pipeline expected total: %.4g h\n", seq.TotalExpected)

	// Context: what the divisible-load theory says the checkpoint period
	// should be at p*.
	lambda := float64(a.Processors) * pl.LambdaProc
	chunk, err := expectation.OptimalChunk(task.BaseCheckpoint, lambda)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat p* the Lambert-W optimal checkpoint period would be %.4g h (Daly: %.4g h)\n",
		chunk, expectation.DalyPeriod(task.BaseCheckpoint, lambda))
}
