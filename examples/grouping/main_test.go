package main

// Example_main pins the program's output: it is deterministic, so a
// change that moves any figure it prints fails go test.
func Example_main() {
	main()
	// Output:
	// bag of 14 tasks, total work 65.0 h, C=R=0.5 h, MTBF 40 h
	//
	// strategy                     E[T] (h)     groups
	// exact (subset DP, O(3^n))    78.0378      10
	// LPT scan (heuristic)         78.0378      10
	// Lambert-chunk target         78.0378      10
	// checkpoint after each task   79.1005      14
	// single final checkpoint      168.8841     1
	//
	// LPT gap to exact: 0.0000%  (Prop. 2: closing it in general is strongly NP-hard)
	//
	// --- Proposition 2 reduction demo ---
	// planted YES instance [82 80 78 96 80 80 89 64 71 71 80 89] (T=240)
	//   3-PARTITION(n=4, T=240) → schedule(λ=0.00208333, C=R=92.7106, K=2329.08)
	//   optimal schedule: E* = 2329.077733, bound K = 2329.077733, gap 0.00e+00 → 3-PARTITION says true
	// perturbed NO instance [41 38 37 44 40 43 40 40 37] (T=120)
	//   3-PARTITION(n=3, T=120) → schedule(λ=0.00416667, C=R=46.3553, K=873.404)
	//   optimal schedule: E* = 873.414259, bound K = 873.404150, gap 1.16e-05 → 3-PARTITION says false
}
