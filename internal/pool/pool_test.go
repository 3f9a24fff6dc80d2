package pool

import (
	"sync/atomic"
	"testing"
)

// TestForEachJobVisitsEveryIndexOnce covers the inline (workers=1), the
// GOMAXPROCS default (workers<=0), the clamped (workers>n), and the
// empty shapes: every index in [0,n) runs exactly once.
func TestForEachJobVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {7, 1}, {7, 0}, {7, -1}, {7, 3}, {5, 64}, {100, 4},
	} {
		hits := make([]atomic.Int32, tc.n)
		ForEachJob(tc.n, tc.workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times, want 1", tc.n, tc.workers, i, got)
			}
		}
	}
}
