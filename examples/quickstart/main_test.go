package main

// Example_main pins the program's output: it is deterministic, so a
// change that moves any figure it prints fails go test.
func Example_main() {
	main()
	// Output:
	// optimal expected makespan: 55.309 h
	// checkpoint after: ingest clean align call report
	// checkpoint-everywhere: 55.447 h (0.2% over optimal)
	// final-checkpoint-only: 62.305 h (12.6% over optimal)
	// simulated (50k runs):  55.276 ± 0.102 h  (analytical 55.309)
	// executed  (50k runs):  55.265 ± 0.102 h  (planned 55.309, within CI: true)
	// solver arm: monotone (12 oracle evaluations for 6 tasks)
}
