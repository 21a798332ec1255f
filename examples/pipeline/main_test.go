package main

import "os"

// Example_main pins the program's output: it is deterministic, so a
// change that moves any figure it prints fails go test.
func Example_main() {
	// main writes pipeline.json to the working directory: run it in a
	// scratch one.
	dir, err := os.MkdirTemp("", "pipeline-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	defer os.Chdir(wd)
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	main()
	// Output:
	// genomics pipeline: optimal checkpoint placement vs platform MTBF
	// MTBF (h)   E_opt (h)    E_always (h)   E_never (h)    E_daly (h)     checkpoints after
	// 1e+04      80.84        87.97          80.84          80.84          report
	// 1000       83.4         88.92          83.88          84.56          fastq-qc call-variants report
	// 300        88.28        91.47          92.5           88.81          fastq-qc sort-dedup call-variants report
	// 100        98.15        99.36          124.3          99.22          fastq-qc trim align-bwa recalibrate call-variants filter report
	// 30         136.3        136.3          416            143.9          fastq-qc trim align-bwa sort-dedup recalibrate call-variants filter report
	// 10         431.2        431.2          3.293e+04      432.9          fastq-qc trim align-bwa sort-dedup recalibrate call-variants filter annotate report
	//
	// reading the table: at long MTBF only the mandatory final checkpoint survives;
	// as failures become frequent the DP checkpoints the cheap positions (post-variant-calling)
	// long before it is willing to pay for the expensive post-alignment BAM dumps.
	//
	// workflow written to pipeline.json — try:
	//   go run ./cmd/chkptplan -workflow pipeline.json -lambda 0.01 -downtime 0.5 -baselines
	//   go run ./cmd/chkptsim  -workflow pipeline.json -lambda 0.01 -downtime 0.5 -runs 100000
}
