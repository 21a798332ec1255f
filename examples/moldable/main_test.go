package main

// Example_main pins the program's output: it is deterministic, so a
// change that moves any figure it prints fails go test.
func Example_main() {
	main()
	// Output:
	// platform: up to 65536 processors, per-node MTBF 500000 h, downtime 1 h
	//
	// E(p) for the numerical kernel (constant checkpoint overhead):
	// p          W(p) (h)       E(p) (h)       waste %
	// 64         786.3          857.8          9.09
	// 256        197.9          239.2          20.91
	// 1024       50.1           85.62          70.90
	// 4096       12.84          54.89          327.42
	// 16384      3.37           109.7          3153.98
	// 65536      0.922          6605           716297.75
	//
	// failure-aware optimum: p* = 4164, E = 54.89 h, speedup 959x over p=1
	// failure-blind choice (p = 65536): E = 6605 h, 11933.2% slower than p*
	//
	// moldable pipeline:
	// stage            workload model         overhead       p*         E (h)
	// load+scatter     perfect                proportional   65536      0.0868
	// LU factorization kernel(γ=0.03)         constant       4164       54.89
	// solve+gather     amdahl(γ=0.0005)       constant       4736       19.49
	// pipeline expected total: 74.47 h
	//
	// at p* the Lambert-W optimal checkpoint period would be 61.79 h (Daly: 61.71 h)
}
