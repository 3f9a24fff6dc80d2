// Package poolsafety is an analyzer fixture: worker bodies handed to the
// pool dispatcher writing shared state, next to the owned-slot and
// mutex-guarded shapes the analyzer must accept.
package poolsafety

import "sync"

var hits int

// ForEachJob stands in for the module's pool.ForEachJob (poolsafety
// matches the dispatcher by name): the last argument is the worker
// body, invoked concurrently with job indices.
func ForEachJob(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// OwnedSlots writes only the worker's own index: accepted.
func OwnedSlots(n int) []int {
	out := make([]int, n)
	ForEachJob(n, func(i int) {
		x := i * i // worker-private local: accepted
		out[i] = x
	})
	return out
}

func Races(n int) int {
	total := 0
	first := 0
	ForEachJob(n, func(i int) {
		hits++     // want "package-level hits"
		total += i // want "captured variable total"
		first = i  // want "captured variable first"
	})
	return total + first
}

func SharedSlot(n int) []int {
	out := make([]int, 1)
	ForEachJob(n, func(i int) {
		out[0] = i // want "index not derived from the worker's parameter"
	})
	return out
}

// Locked serializes its shared writes: accepted.
func Locked(n int) int {
	var mu sync.Mutex
	total := 0
	ForEachJob(n, func(i int) {
		mu.Lock()
		total += i
		mu.Unlock()
	})
	return total
}

// Sampled writes a shared cell on purpose (last writer wins is fine for
// a progress sample); the allow keeps the exception visible.
func Sampled(n int) int {
	latest := 0
	ForEachJob(n, func(i int) {
		//ppep:allow poolsafety progress sample; any worker's value is acceptable
		latest = i
	})
	return latest
}
