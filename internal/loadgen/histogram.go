// Package loadgen is a closed-loop HTTP load harness for ppepd's
// prediction endpoints: N workers each issue requests back-to-back over
// keep-alive connections, recording per-request latency into
// log-bucketed histograms that merge into p50/p99/p999 summaries.
//
// It exists to back the serving layer's throughput claim with numbers:
// the published-table architecture makes /predict and /predict/batch a
// pointer load plus a byte write, and this package measures what that
// buys end to end, behind cmd/ppep-loadgen and `make loadgen-smoke`.
package loadgen

import (
	"math/bits"
	"time"
)

// The histogram is HDR-style: values below 2^subBucketBits are exact,
// and every power-of-two octave above that is split into subBuckets
// sub-ranges, giving a constant relative error of at most
// 1/subBuckets ≈ 6% — plenty for latency percentiles — in a fixed,
// allocation-free array.
const (
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits // 16 sub-buckets per octave

	// 64-bit values need (64 - subBucketBits - 1) shifted octaves plus
	// the exact low range; one extra row keeps the index math branchless
	// at the top edge.
	numBuckets = (64 - subBucketBits) * subBuckets

	// The counts array is padded to the next power of two so Record can
	// mask the index instead of carrying a bounds check on the hottest
	// store (perfcheck pins this via //ppep:nobc). Buckets past
	// numBuckets are unreachable — bucketIndex of a non-negative int64
	// tops out at numBuckets-1 — and stay zero.
	bucketSlots = 1 << (subBucketBits + 6) // 1024 ≥ numBuckets
	bucketMask  = bucketSlots - 1
)

// Histogram counts nanosecond latencies in log-spaced buckets. The
// zero value is ready to use. It is not safe for concurrent use: give
// each worker its own and Merge them afterwards.
type Histogram struct {
	counts [bucketSlots]uint64
	total  uint64
	max    int64
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
//
//ppep:inline
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	// Shift the value down until it fits in [subBuckets, 2*subBuckets);
	// each shift is one octave.
	exp := bits.Len64(u) - subBucketBits - 1
	return exp*subBuckets + int(u>>uint(exp))
}

// bucketHigh is the largest value a bucket can hold — quantiles report
// this upper edge, so they err on the conservative (slower) side.
//
//ppep:inline
func bucketHigh(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	exp := idx/subBuckets - 1
	sub := int64(idx%subBuckets + subBuckets)
	return (sub+1)<<uint(exp) - 1
}

// Record adds one observation. Negative durations (clock steps) count
// as zero rather than corrupting the index math. It sits on the
// load-generator's per-request path, so the whole body must inline and
// the bucket store must carry no bounds check: the mask is a no-op for
// every reachable index but lets the prove pass discharge the check.
//
//ppep:inline
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	//ppep:nobc
	h.counts[bucketIndex(v)&bucketMask]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	//ppep:nobc
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// Count is the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Max is the largest recorded observation, exact (not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the latency at quantile q in [0, 1]: the upper edge
// of the bucket holding the q-th observation, clamped to the recorded
// maximum. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; q=0 means the first.
	rank := uint64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketHigh(i)
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}
