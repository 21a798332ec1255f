package main

// Example_main pins the program's output: it is deterministic, so a
// change that moves any figure it prints fails go test.
func Example_main() {
	main()
	// Output:
	// synthetic failure log: 8107 failures, MTBF 61.67 h
	//   exponential fit: Exp(λ=0.016214336161929143)
	//   weibull fit:     Weibull(k=0.6957287171674351, η=48.387592110735355)  ← shape < 1: decreasing hazard, memoryless models mislead
	//
	// exponential-fit DP placement:     8 checkpoints
	// weibull max-saved-work placement: 16 checkpoints
	//
	// simulated mean makespan under the true Weibull failures (40k runs):
	//   exponential-fit DP:  69.576 h
	//   weibull-aware:       70.713 h  (1.63% vs exponential fit)
	//
	// no closed form exists for Weibull (the paper's third extension): these are
	// heuristics judged by simulation, exactly as Section 6 prescribes.
	//
	// checkpoints chosen vs platform age (k=0.7):
	//   age     0 h → 16 checkpoints
	//   age    30 h → 16 checkpoints
	//   age   120 h → 16 checkpoints
	//   age   500 h → 15 checkpoints
}
