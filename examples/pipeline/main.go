// Pipeline: a genomics-style linear workflow with heterogeneous
// checkpoint costs (big intermediate files after alignment, small ones
// after variant calling). Shows how the optimal placement concentrates
// checkpoints where they are cheap, sweeps the failure rate to expose the
// crossover between never- and always-checkpoint, and writes the workflow
// JSON consumable by cmd/chkptplan and cmd/chkptsim.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
)

func buildPipeline() (*dag.Graph, error) {
	g := dag.New()
	// Weights in hours; checkpoint cost ∝ intermediate data volume.
	stages := []dag.Task{
		{Name: "fastq-qc", Weight: 1.5, Checkpoint: 0.02, Recovery: 0.02},
		{Name: "trim", Weight: 2.5, Checkpoint: 0.40, Recovery: 0.40},
		{Name: "align-bwa", Weight: 30, Checkpoint: 2.50, Recovery: 2.50}, // 200 GB BAM
		{Name: "sort-dedup", Weight: 8, Checkpoint: 2.20, Recovery: 2.20},
		{Name: "recalibrate", Weight: 12, Checkpoint: 2.00, Recovery: 2.00},
		{Name: "call-variants", Weight: 20, Checkpoint: 0.10, Recovery: 0.10}, // small VCF
		{Name: "filter", Weight: 2, Checkpoint: 0.05, Recovery: 0.05},
		{Name: "annotate", Weight: 4, Checkpoint: 0.08, Recovery: 0.08},
		{Name: "report", Weight: 0.5, Checkpoint: 0.01, Recovery: 0.01},
	}
	prev := -1
	for _, s := range stages {
		id, err := g.AddTask(s)
		if err != nil {
			return nil, err
		}
		if prev >= 0 {
			if err := g.AddEdge(prev, id); err != nil {
				return nil, err
			}
		}
		prev = id
	}
	return g, nil
}

func main() {
	g, err := buildPipeline()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("genomics pipeline: optimal checkpoint placement vs platform MTBF")
	fmt.Printf("%-10s %-12s %-14s %-14s %-14s %s\n",
		"MTBF (h)", "E_opt (h)", "E_always (h)", "E_never (h)", "E_daly (h)", "checkpoints after")
	for _, mtbf := range []float64{10000, 1000, 300, 100, 30, 10} {
		m, err := expectation.NewModel(1/mtbf, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		cp, order, err := core.NewChainProblem(g, m, 0)
		if err != nil {
			log.Fatal(err)
		}
		opt, err := core.SolveChainDP(cp)
		if err != nil {
			log.Fatal(err)
		}
		always, err := core.AlwaysCheckpoint(cp)
		if err != nil {
			log.Fatal(err)
		}
		never, err := core.NeverCheckpoint(cp)
		if err != nil {
			log.Fatal(err)
		}
		daly, err := core.PeriodicCheckpoint(cp, expectation.DalyPeriod(1.0, m.Lambda))
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		for _, pos := range opt.Positions() {
			names = append(names, g.Task(order[pos]).Name)
		}
		fmt.Printf("%-10.4g %-12.4g %-14.4g %-14.4g %-14.4g %s\n",
			mtbf, opt.Expected, always.Expected, never.Expected, daly.Expected, strings.Join(names, " "))
	}
	fmt.Println("\nreading the table: at long MTBF only the mandatory final checkpoint survives;")
	fmt.Println("as failures become frequent the DP checkpoints the cheap positions (post-variant-calling)")
	fmt.Println("long before it is willing to pay for the expensive post-alignment BAM dumps.")

	// Persist the workflow for the CLI tools.
	const out = "pipeline.json"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := g.Write(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworkflow written to %s — try:\n", out)
	fmt.Println("  go run ./cmd/chkptplan -workflow pipeline.json -lambda 0.01 -downtime 0.5 -baselines")
	fmt.Println("  go run ./cmd/chkptsim  -workflow pipeline.json -lambda 0.01 -downtime 0.5 -runs 100000")
}
