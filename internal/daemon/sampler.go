// Package daemon is the user-level PPEP daemon as the paper deploys it
// (Section IV-E): a sampler that programs and reads the performance
// counters through the MSR interface, rotates the two six-event groups
// every 20 ms to cover all twelve Table I events, reads the thermal diode
// through hwmon, and assembles 200 ms measurement intervals — then feeds
// them to the PPEP models and an optional DVFS policy.
//
// Unlike the simulator's built-in interval collection (which the training
// campaign uses), everything here goes through the register-level device
// emulation, exercising the same code path a real deployment would.
//
// For long-running service deployments (internal/serve, `ppepd -serve`),
// every register and diode access carries a bounded retry-with-backoff
// budget (Retry): transient faults — injected in the emulation via
// msr.Device.InjectFaults / hwmon.Sensor.InjectFaults, real EIO on
// hardware — are retried and counted instead of killing the loop.
package daemon

import (
	"fmt"
	"time"

	"ppep/internal/arch"
	"ppep/internal/msr"
	"ppep/internal/pmc"
	"ppep/internal/trace"
)

// MSR is the register access surface the sampler needs (implemented by
// internal/msr.Device). Each window makes one ReadCounters and one
// ProgramCounters call per core; Rdmsr and Wrmsr serve the P-state
// status read and the retry of a register a group call failed.
type MSR interface {
	Rdmsr(core int, addr uint32) (uint64, error)
	Wrmsr(core int, addr uint32, val uint64) error
	// ReadCounters reads PERF_CTR[from..5] of a core into v[from..5].
	// It stops at the first register that fails and returns its slot
	// with the error; otherwise it returns pmc.CountersPerCore and nil.
	ReadCounters(core, from int, v *[pmc.CountersPerCore]uint64) (int, error)
	// ProgramCounters writes the counter registers from..11 of a core
	// in address order (msr.NumCounterRegs): PERF_CTL[slot] = ctl[slot]
	// and then PERF_CTR[slot] = 0 for each slot. It stops at the first
	// register that fails and returns its index with the error;
	// otherwise it returns msr.NumCounterRegs and nil.
	ProgramCounters(core, from int, ctl *[pmc.CountersPerCore]uint64) (int, error)
}

// Thermometer reads the socket diode (implemented by internal/hwmon).
type Thermometer interface {
	TempK() float64
}

// Retry is a bounded retry-with-backoff budget for device accesses.
type Retry struct {
	// Attempts is the total number of tries per register operation
	// (<= 1 means a single attempt, no retry).
	Attempts int
	// Backoff is the sleep before the first retry; it doubles on every
	// further retry of the same operation. Zero means retry immediately.
	Backoff time.Duration
	// Sleep replaces time.Sleep (tests inject a recorder; nil uses
	// time.Sleep). Never called when Backoff is zero.
	Sleep func(time.Duration)
}

// attempts returns the effective attempt budget (at least one).
func (r Retry) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

// sleep blocks for the attempt-th backoff step (attempt counts from 1).
func (r Retry) sleep(attempt int) {
	if r.Backoff <= 0 {
		return
	}
	d := r.Backoff << (attempt - 1)
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Sampler multiplexes the twelve Table I events onto the six hardware
// counters of every core: group 0 holds E1–E6, group 1 holds E7–E12.
type Sampler struct {
	dev      MSR
	numCores int
	tbl      arch.VFTable

	retry    Retry
	counters *Counters

	groups [2][pmc.CountersPerCore]arch.EventID
	// ctl holds each group's PERF_CTL values, encoded once by NewSampler.
	ctl    [2][pmc.CountersPerCore]uint64
	active int
	// counts accumulates raw per-core counts per event this interval.
	counts []arch.EventVec
	// liveMS tracks how long each group has counted this interval.
	liveMS [2]float64
	// read receives a core's counters; a field, because an array passed
	// through the MSR interface would escape to the heap.
	read [pmc.CountersPerCore]uint64
}

// NewSampler programs the initial counter group on every core and
// returns the ready sampler.
func NewSampler(dev MSR, numCores int, tbl arch.VFTable) (*Sampler, error) {
	s := &Sampler{
		dev:      dev,
		numCores: numCores,
		tbl:      tbl,
		counts:   make([]arch.EventVec, numCores),
	}
	for i := 0; i < pmc.CountersPerCore; i++ {
		s.groups[0][i] = arch.EventID(i + 1)
		s.groups[1][i] = arch.EventID(i + 1 + pmc.CountersPerCore)
	}
	for g := range s.groups {
		for slot, ev := range s.groups[g] {
			s.ctl[g][slot] = msr.EncodeCtl(arch.Info(ev).Code)
		}
	}
	if err := s.program(0); err != nil {
		return nil, err
	}
	return s, nil
}

// SetRetry installs the retry budget and the counters retried/failed
// operations are reported to (counters may be nil).
func (s *Sampler) SetRetry(r Retry, c *Counters) {
	s.retry = r
	s.counters = c
}

// count bumps a counter if a Counters sink is installed.
func (s *Sampler) count(f func(*Counters)) {
	if s.counters != nil {
		f(s.counters)
	}
}

// rdmsr reads a register with the retry budget.
func (s *Sampler) rdmsr(core int, addr uint32) (uint64, error) {
	v, err := s.dev.Rdmsr(core, addr)
	if err != nil {
		return s.reread(core, addr, err)
	}
	return v, nil
}

// reread retries a register read whose first attempt failed with err,
// through Rdmsr, for the rest of the retry budget.
func (s *Sampler) reread(core int, addr uint32, err error) (uint64, error) {
	var v uint64
	for a := 1; err != nil && a < s.retry.attempts(); a++ {
		s.count(func(c *Counters) { c.MSRRetries.Add(1) })
		s.retry.sleep(a)
		v, err = s.dev.Rdmsr(core, addr)
	}
	if err != nil {
		s.count(func(c *Counters) { c.MSRFailures.Add(1) })
	}
	return v, err
}

// rewrite retries a register write whose first attempt failed with err,
// through Wrmsr, for the rest of the retry budget.
func (s *Sampler) rewrite(core int, addr uint32, val uint64, err error) error {
	for a := 1; err != nil && a < s.retry.attempts(); a++ {
		s.count(func(c *Counters) { c.MSRRetries.Add(1) })
		s.retry.sleep(a)
		err = s.dev.Wrmsr(core, addr, val)
	}
	if err != nil {
		s.count(func(c *Counters) { c.MSRFailures.Add(1) })
	}
	return err
}

// readCounters reads a core's six counters with the retry budget: one
// group call, and for a register it fails, the failed call counts as
// the first attempt, the retries go through Rdmsr, and the group
// resumes after that register.
func (s *Sampler) readCounters(core int, v *[pmc.CountersPerCore]uint64) error {
	for from := 0; from < pmc.CountersPerCore; {
		slot, err := s.dev.ReadCounters(core, from, v)
		if err == nil {
			break
		}
		if v[slot], err = s.reread(core, msr.PerfCtr(slot), err); err != nil {
			return fmt.Errorf("daemon: read core %d slot %d: %w", core, slot, err)
		}
		from = slot + 1
	}
	return nil
}

// programCounters writes a core's PERF_CTL registers for a group and
// zeroes its counters with the retry budget, resuming the group call
// after a register it failed as readCounters does.
func (s *Sampler) programCounters(core int, ctl *[pmc.CountersPerCore]uint64) error {
	for from := 0; from < msr.NumCounterRegs; {
		g, err := s.dev.ProgramCounters(core, from, ctl)
		if err == nil {
			break
		}
		if slot := g / 2; g%2 == 0 {
			if err := s.rewrite(core, msr.PerfCtl(slot), ctl[slot], err); err != nil {
				return fmt.Errorf("daemon: program core %d slot %d: %w", core, slot, err)
			}
		} else if err := s.rewrite(core, msr.PerfCtr(slot), 0, err); err != nil {
			return fmt.Errorf("daemon: zero core %d slot %d: %w", core, slot, err)
		}
		from = g + 1
	}
	return nil
}

// program writes the PERF_CTL registers of every core for a group and
// zeroes the counters.
func (s *Sampler) program(group int) error {
	for core := 0; core < s.numCores; core++ {
		if err := s.programCounters(core, &s.ctl[group]); err != nil {
			return err
		}
	}
	s.active = group
	return nil
}

// Reset abandons the current interval's accumulation and re-programs
// group 0 from scratch — the recovery path after a mid-interval device
// failure in service mode.
func (s *Sampler) Reset() error {
	for i := range s.counts {
		s.counts[i] = arch.EventVec{}
	}
	s.liveMS = [2]float64{}
	return s.program(0)
}

// OnWindow closes one 20 ms multiplexing window: it reads and accumulates
// the active group's counters on every core, then rotates to the other
// group. windowMS is the wall-clock length the group was live.
func (s *Sampler) OnWindow(windowMS float64) error {
	// Group g counts events g·6+1 .. g·6+6, slot by slot.
	base := s.active * pmc.CountersPerCore
	for core := 0; core < s.numCores; core++ {
		if err := s.readCounters(core, &s.read); err != nil {
			return err
		}
		acc := (*[pmc.CountersPerCore]float64)(s.counts[core][base:])
		for slot, x := range s.read {
			acc[slot] += float64(x)
		}
	}
	s.liveMS[s.active] += windowMS
	return s.program(1 - s.active)
}

// EndInterval assembles the 200 ms measurement interval: per-core counts
// extrapolated by each group's live share, the VF state read from the
// P-state status MSR, and the given diode temperature. It resets the
// accumulation for the next interval. A group that never completed a
// window this interval (liveMS == 0) contributes zero counts rather than
// a division by zero — its events simply were not observed.
func (s *Sampler) EndInterval(timeS, intervalMS, tempK float64) (trace.Interval, error) {
	iv := trace.Interval{
		TimeS: timeS,
		DurS:  intervalMS / 1000,
		TempK: tempK,
		// Pre-sized so the per-core loop appends without growth
		// reallocations; the interval owns these slices.
		Counters:  make([]arch.EventVec, 0, s.numCores),
		PerCoreVF: make([]arch.VFState, 0, s.numCores),
		Busy:      make([]bool, 0, s.numCores),
	}
	for core := 0; core < s.numCores; core++ {
		var ev arch.EventVec
		for g := 0; g < 2; g++ {
			live := s.liveMS[g]
			for _, id := range s.groups[g] {
				if live > 0 {
					ev[int(id)-1] = s.counts[core][int(id)-1] * intervalMS / live
				}
			}
		}
		pstate, err := s.rdmsr(core, msr.PStateStatus)
		if err != nil {
			return iv, fmt.Errorf("daemon: P-state read core %d: %w", core, err)
		}
		vf := arch.VFState(int(s.tbl.Top()) - int(pstate))
		iv.Counters = append(iv.Counters, ev)
		iv.PerCoreVF = append(iv.PerCoreVF, vf)
		iv.Busy = append(iv.Busy, ev.Get(arch.RetiredInstructions) > 0)
		s.counts[core] = arch.EventVec{}
	}
	s.liveMS = [2]float64{}
	return iv, nil
}
