// Dagsched: scheduling a non-chain workflow. Proposition 2 says jointly
// choosing the order and the checkpoints is strongly NP-hard, so the
// library linearizes with a portfolio of heuristics and runs the exact
// per-order placement DP (a generalized Algorithm 1) on each — including
// under the Section 6 live-set cost model where a checkpoint pays for
// every output that is still needed. The example closes with the
// replication trade-off the paper's related work points to: when is it
// worth splitting the platform into replica groups instead of relying on
// checkpoints alone?
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/replication"
	"repro/internal/rng"
)

func main() {
	r := rng.New(99)

	// An astronomy-style mosaic workflow: wide projection stage, pairwise
	// overlaps, fan-in fit, tail chain.
	g, err := dag.MontageLike(8, dag.DefaultWeights(), r)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := g.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow: %s\n\n", stats)

	m, err := expectation.NewModel(1.0/50, 0.5) // MTBF 50 h
	if err != nil {
		log.Fatal(err)
	}

	// Compare linearization strategies under both cost models.
	for _, cm := range []core.CostModel{core.LastTaskCosts{}, core.LiveSetCosts{}} {
		fmt.Printf("cost model %q:\n", cm.Name())
		for _, s := range core.DefaultStrategies() {
			order, err := s.Order(g)
			if err != nil {
				log.Fatal(err)
			}
			res, err := core.SolveOrderDP(g, order, m, cm)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-18s E[T] = %-10.4f (%d checkpoints)\n",
				s.Name, res.Expected, len(res.Plan().Checkpoints()))
		}
		best, err := core.SolveDAG(g, m, cm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  portfolio best: %s (E[T] = %.4f)\n\n", best.Strategy, best.Expected)
	}

	// Replication: split a 64-node platform into g groups all executing
	// the workflow's heaviest segment. Perfect parallelism means g groups
	// slow the attempt by g; resilience must pay for that.
	fmt.Println("replication trade-off on the heaviest segment (total work 40 h on 64 nodes):")
	const (
		segWork   = 40.0
		ckpt      = 1.0
		totalRate = 64 * 1e-3 // per-node MTBF 1000 h
	)
	workAt := func(groups int) float64 { return segWork * float64(groups) }
	bestG, times, err := replication.BreakEvenGroups(4, totalRate, 0.5, 1, ckpt, workAt, 20000, r)
	if err != nil {
		log.Fatal(err)
	}
	for gi, tm := range times {
		marker := ""
		if gi+1 == bestG {
			marker = "  ← best"
		}
		fmt.Printf("  g=%d: E[T] = %.3f h%s\n", gi+1, tm, marker)
	}
	fmt.Println("\nwith a 1000 h per-node MTBF, checkpointing alone wins (g=1): replication's")
	fmt.Println("slowdown outweighs its resilience — consistent with treating replication as")
	fmt.Println("complementary, for regimes where failures outpace recovery (see internal/replication).")
}
