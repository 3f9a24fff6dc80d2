// Package pool is the module's one bounded worker pool: the experiment
// campaigns and the fleet engine both fan their jobs out through
// ForEachJob. The race-detector runs of their tests at more than one
// worker check the bodies handed to it.
package pool

import (
	"runtime"
	"sync"
)

// ForEachJob runs fn(i) for every i in [0,n) on a bounded pool:
// min(workers, n) goroutines drain an index channel, so at most
// `workers` jobs are in flight and no goroutine is created before it has
// work to do; workers <= 0 means GOMAXPROCS, and workers == 1 runs
// inline. Determinism comes from each job writing only state owned by
// its index (a pre-sized result slice, a shard) and deriving any
// randomness from the job's identity, never from scheduling order.
func ForEachJob(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
