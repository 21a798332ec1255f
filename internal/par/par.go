// Package par is the one bounded worker pool of the module: solvers,
// campaigns and the experiment engine fan their independent items out
// through Each. It depends on nothing else in the module, so every
// layer may import it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count for n items: ≤ 0 means
// runtime.GOMAXPROCS(0), and the count never exceeds n.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Each runs fn(worker, i) for every i ∈ [0, n) on Workers(workers, n)
// goroutines; worker ∈ [0, Workers(workers, n)) identifies the
// goroutine, so callers can keep per-worker scratch. With one worker it
// is a plain loop on the caller's goroutine.
//
// Items are dealt dynamically in index order. Once an item fails no
// new item is dealt, and Each returns the error of the lowest failing
// index. Dealt items always form a prefix of [0, n), so for an fn whose
// failures depend only on i that error does not depend on scheduling.
func Each(workers, n int, fn func(worker, i int) error) error {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		failed  = n
		failErr error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < failed {
						failed, failErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return failErr
}
