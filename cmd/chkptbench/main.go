// Command chkptbench runs the reproduction experiment suite (E1–E14; see
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for recorded
// results) through the parallel scenario engine and prints the result
// tables.
//
// Usage:
//
//	chkptbench                 # run everything, full Monte-Carlo budget
//	chkptbench -run E1,E5      # run selected experiments
//	chkptbench -quick          # reduced Monte-Carlo budget
//	chkptbench -seed 42        # change the master seed
//	chkptbench -parallel 8     # worker-pool size (default GOMAXPROCS)
//	chkptbench -csv            # emit CSV instead of aligned tables
//	chkptbench -json           # emit typed JSON
//
// With a fixed seed the tables are byte-identical for every -parallel
// value (volatile wall-clock cells in E7/E13/E14 excepted; see DESIGN.md's
// determinism contract).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/expt"
	"repro/internal/expt/engine"
	"repro/internal/expt/render"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, executes, renders, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chkptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList  = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		quick    = fs.Bool("quick", false, "reduced Monte-Carlo budget")
		seed     = fs.Uint64("seed", 7, "master random seed")
		parallel = fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
		csv      = fs.Bool("csv", false, "emit CSV tables")
		jsonOut  = fs.Bool("json", false, "emit typed JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *csv && *jsonOut {
		fmt.Fprintln(stderr, "chkptbench: -csv and -json are mutually exclusive")
		return 2
	}

	selected, err := selectExperiments(*runList)
	if err != nil {
		fmt.Fprintf(stderr, "chkptbench: %v\n", err)
		return 2
	}

	cfg := expt.Config{Seed: *seed, Quick: *quick}
	runner := engine.Runner{Workers: *parallel}

	if *jsonOut {
		// JSON is one document, so it cannot stream; collect everything.
		results := runner.Run(cfg, selected)
		suites := make([]render.Suite, 0, len(results))
		for _, res := range results {
			if res.Err != nil {
				fmt.Fprintf(stderr, "chkptbench: %v\n", res.Err)
				return 1
			}
			suites = append(suites, render.Suite{
				ID: res.Info.ID, Title: res.Info.Title, Claim: res.Info.Claim, Tables: res.Tables,
			})
		}
		if err := render.JSON(stdout, suites); err != nil {
			fmt.Fprintf(stderr, "chkptbench: render: %v\n", err)
			return 1
		}
		return 0
	}

	// Text/CSV stream: each experiment prints as soon as it (and its
	// predecessors) complete, like the old serial harness; after the
	// first failure nothing further is printed.
	exit := 0
	runner.RunStream(cfg, selected, func(res engine.Result) {
		if exit != 0 {
			return
		}
		if res.Err != nil {
			fmt.Fprintf(stderr, "chkptbench: %v\n", res.Err)
			exit = 1
			return
		}
		fmt.Fprintf(stdout, "### %s — %s\nclaim: %s\n\n", res.Info.ID, res.Info.Title, res.Info.Claim)
		for _, t := range res.Tables {
			var err error
			if *csv {
				err = render.CSV(stdout, t)
				fmt.Fprintln(stdout)
			} else {
				err = render.Text(stdout, t)
			}
			if err != nil {
				fmt.Fprintf(stderr, "chkptbench: render: %v\n", err)
				exit = 1
				return
			}
		}
	})
	return exit
}

// selectExperiments resolves a comma-separated ID list ("" = all). An
// unknown or empty ID is an error naming the valid IDs, so a typo fails
// loudly instead of being skipped.
func selectExperiments(runList string) ([]expt.Scenario, error) {
	if runList == "" {
		return expt.All(), nil
	}
	var selected []expt.Scenario
	seen := map[string]bool{}
	for _, id := range strings.Split(runList, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, fmt.Errorf("empty experiment ID in -run list; available: %s", strings.Join(expt.IDs(), " "))
		}
		e, ok := expt.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; available: %s", id, strings.Join(expt.IDs(), " "))
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		selected = append(selected, e)
	}
	return selected, nil
}
