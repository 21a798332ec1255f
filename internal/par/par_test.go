package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce pins the coverage contract: every index
// runs exactly once, on a worker index inside the resolved pool, for a
// defaulted, serial, small and oversized worker count.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 3, n + 5} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			pool := Workers(workers, n)
			var hits [n]atomic.Int32
			err := Each(workers, n, func(w, i int) error {
				if w < 0 || w >= pool {
					t.Errorf("item %d ran on worker %d outside [0, %d)", i, w, pool)
				}
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("item %d ran %d times", i, got)
				}
			}
		})
	}
	if err := Each(4, 0, func(int, int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("empty range: %v", err)
	}
}

// TestWorkersResolves pins the worker-count rule: ≤ 0 means
// GOMAXPROCS, and the count is clamped to the item count.
func TestWorkersResolves(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1 << 20, procs}, {-2, 1 << 20, procs}, {3, 10, 3}, {12, 5, 5}, {0, 1, 1},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// goid returns the current goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	var id string
	fmt.Sscanf(string(buf), "goroutine %s", &id)
	return id
}

// TestEachSerialOnCaller pins that one worker is a plain loop on the
// caller's goroutine, stopping at the first error.
func TestEachSerialOnCaller(t *testing.T) {
	caller := goid()
	var ran []int
	boom := errors.New("boom")
	err := Each(1, 10, func(w, i int) error {
		if id := goid(); id != caller {
			t.Errorf("item %d ran on goroutine %s, caller is %s", i, id, caller)
		}
		ran = append(ran, i)
		if i == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(ran) != 5 {
		t.Fatalf("ran %v, want items 0..4 only", ran)
	}
}

// TestEachLowestFailingIndex pins the deterministic error: with several
// failing items on a concurrent pool, every run returns the lowest
// failing index's error.
func TestEachLowestFailingIndex(t *testing.T) {
	const n = 200
	failing := map[int]bool{23: true, 24: true, 90: true, 150: true}
	for run := 0; run < 100; run++ {
		err := Each(4, n, func(_, i int) error {
			if failing[i] {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 23" {
			t.Fatalf("run %d: err = %v, want item 23", run, err)
		}
	}
}
