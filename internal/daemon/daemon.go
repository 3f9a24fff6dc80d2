package daemon

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fxsim"
	"ppep/internal/hwmon"
	"ppep/internal/msr"
	"ppep/internal/trace"
)

// Policy decides VF states from a PPEP report. Implementations receive
// the chip so per-CU policies can address individual compute units.
type Policy interface {
	Apply(chip *fxsim.Chip, iv trace.Interval, rep *core.Report)
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(*fxsim.Chip, trace.Interval, *core.Report)

// Apply implements Policy.
func (f PolicyFunc) Apply(c *fxsim.Chip, iv trace.Interval, r *core.Report) { f(c, iv, r) }

// Record pairs one measurement interval with its PPEP analysis.
type Record struct {
	// Seq numbers completed intervals from 1, monotonically: ring
	// eviction never renumbers, so consumers can detect gaps.
	Seq      uint64         `json:"seq"`
	Interval trace.Interval `json:"interval"`
	Report   *core.Report   `json:"report"`
}

// Options configures the assembled daemon beyond the required pieces.
type Options struct {
	// HistoryCap bounds the interval/report history ring. 0 keeps
	// everything — the batch behaviour finite RunIntervals experiments
	// expect. A long-running service must set a bound.
	HistoryCap int
	// Retry is the bounded retry-with-backoff budget for device register
	// and diode reads. The zero value means one attempt, no retries.
	Retry Retry
}

// Daemon is the assembled PPEP daemon: device-level sampling plus the
// trained models plus an optional policy.
type Daemon struct {
	Models *core.Models
	Policy Policy
	// OnInterval, when non-nil, is called after every completed interval
	// (after the policy). The service layer hooks observability here.
	OnInterval func(Record)
	// Throttle, when non-nil, is called once per completed or skipped
	// interval by Run. The service mode uses it to pace simulated
	// intervals against the wall clock; tests and batch runs leave it
	// nil and run flat out.
	Throttle func()

	chip    *fxsim.Chip
	sampler *Sampler
	diode   *hwmon.Sensor

	counters  Counters
	lastTempK float64
	// oracle receives the chip's own interval record every interval; on
	// a chip with counter files it carries power, thermal and VF fields
	// only. Reused, so closing an interval allocates nothing here.
	oracle trace.Interval

	// published is the latest per-VF projection table, swapped in whole
	// at every interval end. Readers (the HTTP layer, policies on other
	// goroutines) load it lock-free; each table is immutable once
	// stored, so a loaded pointer stays coherent for as long as the
	// reader holds it.
	published atomic.Pointer[core.PredictionTable]

	mu      sync.Mutex
	history *Ring[Record]
	seq     uint64
}

// AttachOpts wires the daemon onto a simulated chip through the MSR and
// hwmon device paths. The zero Options (unbounded history, no retries)
// is the batch-experiment configuration. Models trained on another VF
// table than the chip's are refused here: every interval would otherwise
// fail analysis while the daemon kept running.
func AttachOpts(chip *fxsim.Chip, models *core.Models, policy Policy, opts Options) (*Daemon, error) {
	if models != nil && !slices.Equal(models.Table, chip.VFTable()) {
		return nil, fmt.Errorf("daemon: models cover %d VF states %v, the chip has %d %v",
			len(models.Table), models.Table, len(chip.VFTable()), chip.VFTable())
	}
	dev := msr.Open(chip)
	d := &Daemon{
		Models:  models,
		Policy:  policy,
		chip:    chip,
		diode:   hwmon.Open(chip),
		history: NewRing[Record](opts.HistoryCap),
	}
	sampler, err := NewSampler(dev, chip.Topology().NumCores(), chip.VFTable())
	if err != nil {
		return nil, err
	}
	sampler.SetRetry(opts.Retry, &d.counters)
	d.sampler = sampler
	d.lastTempK = d.diode.TempK()
	return d, nil
}

// Counters returns the daemon's operational counters (live; fields are
// atomics).
func (d *Daemon) Counters() *Counters { return &d.counters }

// EngineStats returns the chip's tick count (fxsim.Chip.EngineStats).
//
// Deprecated: the chip has a single tick path, so FastTicks is always 0.
// The method remains for benchmark code that still reads it.
func (d *Daemon) EngineStats() fxsim.EngineStats { return d.chip.EngineStats() }

// InjectFaults turns on deterministic transient-fault injection on both
// device read paths (the service-hardening knob; rates in [0, 1)). Only
// meaningful when the daemon was attached through the real msr.Device —
// a custom MSR test double injects its own faults.
func (d *Daemon) InjectFaults(msrRate, hwmonRate float64, seed int64) {
	if dev, ok := d.sampler.dev.(*msr.Device); ok {
		dev.InjectFaults(msrRate, seed)
	}
	d.diode.InjectFaults(hwmonRate, seed+1)
}

// Records returns a copy of the retained history, oldest first.
func (d *Daemon) Records() []Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.Snapshot()
}

// Latest returns the newest record, if any interval has completed.
func (d *Daemon) Latest() (Record, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.Last()
}

// Predictions returns the most recently published per-VF projection
// table, or nil before the first completed interval. The table is
// immutable and the load is lock-free, so it can be read from any
// goroutine at any rate without perturbing sampling.
func (d *Daemon) Predictions() *core.PredictionTable { return d.published.Load() }

// readTempK reads the thermal diode with the retry budget. A diode that
// stays unreadable is not fatal: the previous good reading is reused and
// the failure counted (temperature moves slowly at 200 ms granularity).
func (d *Daemon) readTempK() float64 {
	r := d.sampler.retry
	t, err := d.diode.ReadTempK()
	for a := 1; err != nil && a < r.attempts(); a++ {
		d.counters.HwmonRetries.Add(1)
		r.sleep(a)
		t, err = d.diode.ReadTempK()
	}
	if err != nil {
		d.counters.HwmonFailures.Add(1)
		return d.lastTempK
	}
	d.lastTempK = t
	return t
}

// step drives one 200 ms decision interval through the device path:
// sample it, then analyze, record, publish and apply the policy. A
// device failure is returned by sample and an analysis refusal by
// publish; Run treats the two differently.
func (d *Daemon) step() (Record, error) {
	iv, err := d.sample()
	if err != nil {
		return Record{}, err
	}
	return d.publish(iv)
}

// sample ticks the hardware, rotates the counter groups every 20 ms and
// assembles the interval. Every error it returns is a device failure.
func (d *Daemon) sample() (trace.Interval, error) {
	windows := arch.DecisionIntervalMS / arch.PowerSamplePeriodMS
	for w := 0; w < windows; w++ {
		d.chip.TickN(arch.PowerSamplePeriodMS)
		if err := d.sampler.OnWindow(arch.PowerSamplePeriodMS); err != nil {
			return trace.Interval{}, err
		}
	}
	iv, err := d.sampler.EndInterval(d.chip.TimeS(), arch.DecisionIntervalMS, d.readTempK())
	if err != nil {
		return trace.Interval{}, err
	}
	// Consume the chip's internal interval bookkeeping so oracle
	// power is available to callers for validation.
	d.chip.ReadIntervalInto(&d.oracle)
	iv.TruePowerW = d.oracle.TruePowerW
	iv.MeasPowerW = d.oracle.MeasPowerW
	return iv, nil
}

// publish analyzes a sampled interval, records it, publishes its
// prediction table and applies the policy. Every error it returns is an
// analysis refusal, counted in AnalyzeErrors: the interval is dropped,
// and the device state is sound.
func (d *Daemon) publish(iv trace.Interval) (Record, error) {
	rep, err := d.Models.Analyze(iv)
	if err != nil {
		d.counters.AnalyzeErrors.Add(1)
		return Record{}, err
	}
	// A table with a NaN, an infinity or a negative power is refused
	// like an analysis error: readers could not use it, and JSON cannot
	// even spell the non-finite ones. publish is the only writer of seq,
	// so it reads it without the lock.
	table := d.Models.PredictionTable(d.seq+1, iv, rep)
	if err := table.Validate(); err != nil {
		d.counters.AnalyzeErrors.Add(1)
		return Record{}, fmt.Errorf("daemon: interval not published: %w", err)
	}
	d.mu.Lock()
	d.seq++
	rec := Record{Seq: d.seq, Interval: iv, Report: rep}
	d.history.Push(rec)
	d.mu.Unlock()
	// Publish before the observer hook runs so OnInterval consumers
	// (the HTTP layer's response pre-rendering) see this interval's
	// table, never the previous one.
	d.published.Store(table)
	d.counters.Intervals.Add(1)
	if d.Policy != nil {
		d.Policy.Apply(d.chip, iv, rep)
	}
	if d.OnInterval != nil {
		d.OnInterval(rec)
	}
	return rec, nil
}

// RunIntervals drives the chip for n decision intervals: ticking the
// hardware, rotating counter groups every 20 ms, and analyzing at every
// 200 ms boundary. The chip's workload must already be bound. Any device
// or analysis error aborts the batch — the finite-experiment contract.
func (d *Daemon) RunIntervals(n int) error {
	if d.Models == nil {
		return fmt.Errorf("daemon: no models attached")
	}
	for i := 0; i < n; i++ {
		if _, err := d.step(); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the loop until the context is cancelled — the always-on
// service mode (paper Section IV-E). Unlike RunIntervals, errors never
// abort the loop. An interval whose device access fails even after the
// retry budget is counted as skipped, the sampler is re-programmed from
// scratch, and sampling continues; a transient fault during the
// re-program itself just skips further intervals until the reset lands.
// An interval the analysis refuses (or whose table fails the publish
// gate) is counted in AnalyzeErrors only and dropped: the device state
// is sound, so the sampler carries on without a reset. The loop only
// ever exits with the context's error on cancellation.
func (d *Daemon) Run(ctx context.Context) error {
	if d.Models == nil {
		return fmt.Errorf("daemon: no models attached")
	}
	needReset := false
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if needReset {
			if err := d.sampler.Reset(); err != nil {
				// Still counted (the sampler's retry path bumps
				// MSRRetries/MSRFailures); pace and try again.
				d.counters.SkippedIntervals.Add(1)
				if d.Throttle != nil {
					d.Throttle()
				}
				continue
			}
			// Drain the chip's interval accumulation the failed interval
			// left behind so the next one starts on a clean boundary.
			d.chip.ReadIntervalInto(&d.oracle)
			needReset = false
		}
		if iv, err := d.sample(); err != nil {
			d.counters.SkippedIntervals.Add(1)
			needReset = true
		} else {
			// A refusal is already counted in AnalyzeErrors.
			_, _ = d.publish(iv)
		}
		if d.Throttle != nil {
			d.Throttle()
		}
	}
}
