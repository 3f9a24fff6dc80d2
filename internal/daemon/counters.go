package daemon

import "sync/atomic"

// Counters are the daemon's operational health counters. A long-running
// service must surface transient device faults, dropped analyses, and
// rejected policy decisions as observable counts instead of either
// aborting the loop or silently discarding them; internal/serve renders
// every field at /metrics. All fields are atomics: the sampling loop
// writes them while HTTP handlers read them.
type Counters struct {
	// Intervals counts completed (sampled + analyzed) decision intervals.
	Intervals atomic.Uint64
	// SkippedIntervals counts intervals abandoned after an unrecoverable
	// device error (retries exhausted); the loop resets the sampler and
	// keeps running.
	SkippedIntervals atomic.Uint64
	// AnalyzeErrors counts intervals the PPEP pipeline rejected, and
	// intervals whose prediction table was refused at publish for a
	// non-finite value or a negative power or energy.
	AnalyzeErrors atomic.Uint64
	// MSRRetries / MSRFailures count transient MSR read/write faults that
	// were retried, and register operations that failed even after the
	// bounded retry budget.
	MSRRetries  atomic.Uint64
	MSRFailures atomic.Uint64
	// HwmonRetries / HwmonFailures are the same for the thermal diode; a
	// failed diode read falls back to the last good temperature.
	HwmonRetries  atomic.Uint64
	HwmonFailures atomic.Uint64
	// PolicyRejects counts DVFS policy decisions the chip rejected
	// (e.g. a P-state request outside the VF table).
	PolicyRejects atomic.Uint64
}

// CounterSnapshot is a plain-value copy of Counters for rendering.
type CounterSnapshot struct {
	Intervals        uint64 `json:"intervals"`
	SkippedIntervals uint64 `json:"skipped_intervals"`
	AnalyzeErrors    uint64 `json:"analyze_errors"`
	MSRRetries       uint64 `json:"msr_retries"`
	MSRFailures      uint64 `json:"msr_failures"`
	HwmonRetries     uint64 `json:"hwmon_retries"`
	HwmonFailures    uint64 `json:"hwmon_failures"`
	PolicyRejects    uint64 `json:"policy_rejects"`
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Intervals:        c.Intervals.Load(),
		SkippedIntervals: c.SkippedIntervals.Load(),
		AnalyzeErrors:    c.AnalyzeErrors.Load(),
		MSRRetries:       c.MSRRetries.Load(),
		MSRFailures:      c.MSRFailures.Load(),
		HwmonRetries:     c.HwmonRetries.Load(),
		HwmonFailures:    c.HwmonFailures.Load(),
		PolicyRejects:    c.PolicyRejects.Load(),
	}
}
