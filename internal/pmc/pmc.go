// Package pmc emulates the per-core performance monitoring hardware of
// the simulated CPU: six programmable counters per core and the
// time-multiplexing scheme PPEP uses to observe all twelve Table I events
// with them (Section IV-B1).
//
// Multiplexing is modelled honestly: events are split into two groups of
// six; each group counts during alternating 20 ms windows; a 200 ms
// interval read extrapolates each event's counts by the fraction of the
// interval its group was live (×2 for an even split). Programs whose
// phases flip faster than the window — the paper names dedup, IS, and DC —
// therefore show genuine multiplexing error, exactly the error source the
// paper blames for its outliers.
package pmc

import (
	"fmt"

	"ppep/internal/arch"
)

// CountersPerCore is the number of hardware counters each core provides
// (AMD family 15h has six).
const CountersPerCore = 6

// MuxWindowMS is the multiplexing rotation window in milliseconds.
const MuxWindowMS = 20

// Mux is the per-core multiplexed counter file. Feed it true per-tick
// event increments with Accumulate; read an extrapolated interval with
// ReadInterval. The zero value is a ready multiplexer with the group
// split GroupOf describes.
type Mux struct {
	// Disabled turns multiplexing off: all twelve events count all the
	// time (an oracle mode used for ablation studies; real hardware
	// cannot do this with six counters).
	Disabled bool

	counts  arch.EventVec // accumulated while live
	liveMS  [2]float64    // ms each group has been live this interval
	clockMS float64       // position within the mux rotation
}

// GroupOf reports the mux group of the given event: group 0 counts
// E1–E6, group 1 counts E7–E12, the split the daemon's sampler programs.
// The performance-model events (E10–E12) share a group so their ratios
// (CPI, MCPI) stay self-consistent; the power-model events are split
// across both.
func (m *Mux) GroupOf(id arch.EventID) int { return (int(id) - 1) / CountersPerCore }

// Accumulate feeds the true event increments for a tick of dtMS
// milliseconds. Only the live group's six contiguous events are recorded
// (unless the mux is disabled). Ticks must not straddle a window
// boundary; the standard 1 ms simulation tick divides the 20 ms window
// evenly.
//
//ppep:inline
func (m *Mux) Accumulate(inc *arch.EventVec, dtMS float64) {
	live := int(m.clockMS/MuxWindowMS) % 2
	for g := 0; g < 2; g++ {
		if g == live || m.Disabled {
			for i := g * CountersPerCore; i < (g+1)*CountersPerCore; i++ {
				m.counts[i] += inc[i]
			}
			m.liveMS[g] += dtMS
		}
	}
	m.clockMS += dtMS
	if m.clockMS >= 2*MuxWindowMS {
		m.clockMS -= 2 * MuxWindowMS
	}
}

// ReadInterval returns the extrapolated event counts since the last read
// and resets the accumulation. intervalMS is the elapsed interval length;
// each event is scaled by intervalMS / liveMS(group) to estimate the full
// interval's count, as the msr-tools-based sampler does in the paper.
func (m *Mux) ReadInterval(intervalMS float64) arch.EventVec {
	var out arch.EventVec
	for i := 0; i < arch.NumEvents; i++ {
		live := m.liveMS[i/CountersPerCore]
		if m.Disabled {
			live = intervalMS
		}
		if live > 0 {
			out[i] = m.counts[i] * intervalMS / live
		}
	}
	m.counts = arch.EventVec{}
	m.liveMS = [2]float64{}
	return out
}

// CounterFile is the register-level view of one core's counters, as the
// MSR interface exposes them: six event-select registers and six counter
// registers. It is intentionally simple — PPEP's sampler programs selects
// and reads counts — and is backed by the same true event stream as Mux.
type CounterFile struct {
	// event is the EventVec index each slot counts, resolved from its
	// event-select code when the slot is programmed; -1 when the slot is
	// disabled or its code selects no Table I event.
	event  [CountersPerCore]int
	counts [CountersPerCore]uint64
}

// NewCounterFile returns a counter file with all counters disabled.
func NewCounterFile() *CounterFile {
	cf := &CounterFile{}
	for i := range cf.event {
		cf.event[i] = -1
	}
	return cf
}

// eventOfCode maps every 12-bit event-select code to the EventVec index
// of its Table I event, or -1 for a code Table I does not list. Built
// once, so programming a slot is one lookup rather than a table scan.
var eventOfCode = func() (t [1 << 12]int8) {
	for i := range t {
		t[i] = -1
	}
	for _, e := range arch.Events {
		t[e.Code] = int8(e.ID - 1)
	}
	return t
}()

// slotError is the out-of-range error of the register calls. Its message
// is formatted only when read, so Program, Read and Write carry no
// formatting call and stay within the inlining budget: the sampler makes
// one of them per register operation.
type slotError int

func (e slotError) Error() string {
	return fmt.Sprintf("pmc: counter slot %d out of range", int(e))
}

// Program assigns an event code to a counter slot. A code outside
// Table I is accepted and counts nothing, as on hardware for an event the
// model does not simulate.
//
//ppep:inline
func (cf *CounterFile) Program(slot int, code uint16) error {
	if uint(slot) >= CountersPerCore {
		return slotError(slot)
	}
	cf.Select(slot, code)
	return nil
}

// Select is Program for a slot the caller has already checked: it
// returns no error, and a slot outside 0..5 panics. It is the MSR
// device's group write, which ranges over the six slots itself.
//
//ppep:inline
func (cf *CounterFile) Select(slot int, code uint16) {
	cf.event[slot] = -1
	if int(code) < len(eventOfCode) {
		cf.event[slot] = int(eventOfCode[code])
	}
	cf.counts[slot] = 0
}

// Read returns the current value of a counter slot.
//
//ppep:inline
func (cf *CounterFile) Read(slot int) (uint64, error) {
	if uint(slot) >= CountersPerCore {
		return 0, slotError(slot)
	}
	return cf.counts[slot], nil
}

// Write sets a counter register (sampling tools zero counters between
// reads).
//
//ppep:inline
func (cf *CounterFile) Write(slot int, v uint64) error {
	if uint(slot) >= CountersPerCore {
		return slotError(slot)
	}
	cf.Set(slot, v)
	return nil
}

// Set is Write for a slot the caller has already checked, as Select is
// for Program.
//
//ppep:inline
func (cf *CounterFile) Set(slot int, v uint64) { cf.counts[slot] = v }

// Counts returns all six counter registers in one read.
//
//ppep:inline
func (cf *CounterFile) Counts() [CountersPerCore]uint64 { return cf.counts }

// Accumulate advances every programmed counter by the matching event's
// increment. Counters wrap at 48 bits as on AMD hardware.
//
//ppep:inline
func (cf *CounterFile) Accumulate(inc *arch.EventVec) {
	const mask = (uint64(1) << 48) - 1
	for slot, ev := range cf.event {
		if ev >= 0 {
			cf.counts[slot] = (cf.counts[slot] + uint64(inc[ev])) & mask
		}
	}
}
