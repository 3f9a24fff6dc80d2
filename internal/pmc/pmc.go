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
// ReadInterval.
type Mux struct {
	// Disabled turns multiplexing off: all twelve events count all the
	// time (an oracle mode used for ablation studies; real hardware
	// cannot do this with six counters).
	Disabled bool

	groupOf [arch.NumEvents]int // event index → group 0 or 1
	counts  arch.EventVec       // accumulated while live
	liveMS  [2]float64          // ms each group has been live this interval
	clockMS float64             // position within the mux rotation
}

// NewMux returns a multiplexer with the default group split:
// group 0 counts E1–E6, group 1 counts E7–E12. The performance-model
// events (E10–E12) share a group so their ratios (CPI, MCPI) stay
// self-consistent; the power-model events are split across both.
func NewMux() *Mux {
	m := &Mux{}
	for i := 0; i < arch.NumEvents; i++ {
		if i < CountersPerCore {
			m.groupOf[i] = 0
		} else {
			m.groupOf[i] = 1
		}
	}
	return m
}

// GroupOf reports the mux group of the given event.
func (m *Mux) GroupOf(id arch.EventID) int { return m.groupOf[int(id)-1] }

// Accumulate feeds the true event increments for a tick of dtMS
// milliseconds. Only the live group's events are recorded (unless the mux
// is disabled). Ticks must not straddle a window boundary; the standard
// 1 ms simulation tick divides the 20 ms window evenly.
//
//ppep:inline
func (m *Mux) Accumulate(inc *arch.EventVec, dtMS float64) {
	live := int(m.clockMS/MuxWindowMS) % 2
	for i := 0; i < arch.NumEvents; i++ {
		if m.Disabled || m.groupOf[i] == live {
			m.counts[i] += inc[i]
		}
	}
	if m.Disabled {
		m.liveMS[0] += dtMS
		m.liveMS[1] += dtMS
	} else {
		m.liveMS[live] += dtMS
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
		g := m.groupOf[i]
		live := m.liveMS[g]
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

// Program assigns an event code to a counter slot. A code outside
// Table I is accepted and counts nothing, as on hardware for an event the
// model does not simulate.
func (cf *CounterFile) Program(slot int, code uint16) error {
	if slot < 0 || slot >= CountersPerCore {
		return fmt.Errorf("pmc: counter slot %d out of range", slot)
	}
	cf.event[slot] = -1
	if int(code) < len(eventOfCode) {
		cf.event[slot] = int(eventOfCode[code])
	}
	cf.counts[slot] = 0
	return nil
}

// Read returns the current value of a counter slot.
func (cf *CounterFile) Read(slot int) (uint64, error) {
	if slot < 0 || slot >= CountersPerCore {
		return 0, fmt.Errorf("pmc: counter slot %d out of range", slot)
	}
	return cf.counts[slot], nil
}

// Write sets a counter register (sampling tools zero counters between
// reads).
func (cf *CounterFile) Write(slot int, v uint64) error {
	if slot < 0 || slot >= CountersPerCore {
		return fmt.Errorf("pmc: counter slot %d out of range", slot)
	}
	cf.counts[slot] = v
	return nil
}

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
