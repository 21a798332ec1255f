package main

// Example_main pins the program's output: it is deterministic, so a
// change that moves any figure it prints fails go test.
func Example_main() {
	main()
	// Output:
	// workflow: tasks=19 edges=24 depth=6 width=8 work=111.1 cp=39.16 seq=0.35
	//
	// cost model "last-task":
	//   topo-id            E[T] = 125.9050   (16 checkpoints)
	//   heaviest-first     E[T] = 126.0209   (16 checkpoints)
	//   cheap-ckpt-first   E[T] = 125.9713   (15 checkpoints)
	//   min-live-set       E[T] = 125.9939   (15 checkpoints)
	//   portfolio best: topo-id (E[T] = 125.9050)
	//
	// cost model "live-set":
	//   topo-id            E[T] = 128.8424   (18 checkpoints)
	//   heaviest-first     E[T] = 128.2112   (17 checkpoints)
	//   cheap-ckpt-first   E[T] = 128.1003   (18 checkpoints)
	//   min-live-set       E[T] = 128.6100   (18 checkpoints)
	//   portfolio best: cheap-ckpt-first (E[T] = 128.1003)
	//
	// replication trade-off on the heaviest segment (total work 40 h on 64 nodes):
	//   g=1: E[T] = 220.112 h  ← best
	//   g=2: E[T] = 301.043 h
	//   g=3: E[T] = 365.077 h
	//   g=4: E[T] = 420.985 h
	//
	// with a 1000 h per-node MTBF, checkpointing alone wins (g=1): replication's
	// slowdown outweighs its resilience — consistent with treating replication as
	// complementary, for regimes where failures outpace recovery (see internal/replication).
}
