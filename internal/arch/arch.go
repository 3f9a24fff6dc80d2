// Package arch defines the shared architectural vocabulary of the PPEP
// reproduction: voltage-frequency (VF) state tables, hardware event
// identifiers, chip topology descriptions, and the microarchitectural
// constants the paper's models depend on.
//
// Everything in this package mirrors Section II ("Experimental
// Methodology") and Table I of the paper. Both evaluation platforms — the
// AMD FX-8320 (primary) and the AMD Phenom II X6 1090T (secondary) — are
// described here so the simulator and the models can be instantiated for
// either.
package arch

import (
	"fmt"

	"ppep/internal/units"
)

// VFState identifies a software-visible voltage-frequency state. The paper
// numbers states VF1 (lowest) through VF5 (highest); we preserve that
// numbering, so a VFState is 1-based.
type VFState int

// The five FX-8320 states from Section II. Phenom II uses VF1..VF4.
const (
	VF1 VFState = 1
	VF2 VFState = 2
	VF3 VFState = 3
	VF4 VFState = 4
	VF5 VFState = 5
)

// String returns the paper's name for the state ("VF3").
func (s VFState) String() string { return fmt.Sprintf("VF%d", int(s)) }

// VFPoint is one operating point: a core voltage and clock frequency.
type VFPoint struct {
	Voltage units.Volts
	Freq    units.GigaHertz
}

// VFTable is an ordered list of operating points, index 0 holding VF1.
// Higher indices are strictly faster and at equal-or-higher voltage.
type VFTable []VFPoint

// Point returns the operating point for state s.
func (t VFTable) Point(s VFState) VFPoint { return t[int(s)-1] }

// States returns all states in ascending order (VF1 first).
func (t VFTable) States() []VFState {
	out := make([]VFState, len(t))
	for i := range t {
		out[i] = VFState(i + 1)
	}
	return out
}

// Top returns the highest (fastest) state in the table.
func (t VFTable) Top() VFState { return VFState(len(t)) }

// Bottom returns the lowest (slowest) state in the table.
func (t VFTable) Bottom() VFState { return VF1 }

// Contains reports whether s is a valid state of this table.
func (t VFTable) Contains(s VFState) bool { return s >= 1 && int(s) <= len(t) }

// FX8320VFTable is the five-state table measured on the paper's AMD
// FX-8320: VF5 (1.320 V, 3.5 GHz) down to VF1 (0.888 V, 1.4 GHz).
var FX8320VFTable = VFTable{
	{Voltage: 0.888, Freq: 1.4}, // VF1
	{Voltage: 1.008, Freq: 1.7}, // VF2
	{Voltage: 1.128, Freq: 2.3}, // VF3
	{Voltage: 1.242, Freq: 2.9}, // VF4
	{Voltage: 1.320, Freq: 3.5}, // VF5
}

// PhenomIIVFTable is a four-state table for the AMD Phenom II X6 1090T
// secondary platform. The paper does not print the exact points; these are
// the standard 1090T P-states (3.2 GHz nominal, 800 MHz floor).
var PhenomIIVFTable = VFTable{
	{Voltage: 0.950, Freq: 0.8}, // VF1
	{Voltage: 1.100, Freq: 1.6}, // VF2
	{Voltage: 1.250, Freq: 2.4}, // VF3
	{Voltage: 1.350, Freq: 3.2}, // VF4
}

// North-bridge operating points used in the Section V-C2 what-if study:
// the stock NB state and the hypothetical low state (20% voltage drop, 50%
// frequency drop).
var (
	NBHi = VFPoint{Voltage: 1.175, Freq: 2.2}
	NBLo = VFPoint{Voltage: 0.940, Freq: 1.1}
)

// EventID identifies one of the twelve hardware events of Table I.
// E1–E9 feed the dynamic power model; E10–E12 feed the performance model.
type EventID int

const (
	RetiredUOP              EventID = iota + 1 // E1, PMCx0c1
	FPUPipeAssignment                          // E2, PMCx000
	InstructionCacheFetches                    // E3, PMCx080
	DataCacheAccesses                          // E4, PMCx040
	RequestToL2Cache                           // E5, PMCx07d
	RetiredBranches                            // E6, PMCx0c2
	RetiredMispredBranches                     // E7, PMCx0c3
	L2CacheMisses                              // E8, PMCx07e
	DispatchStalls                             // E9, PMCx0d1
	CPUClocksNotHalted                         // E10, PMCx076
	RetiredInstructions                        // E11, PMCx0c0
	MABWaitCycles                              // E12, PMCx069
)

// NumEvents is the number of hardware events PPEP samples (Table I).
const NumEvents = 12

// NumPowerEvents is the number of events feeding the dynamic power model
// (E1–E9).
const NumPowerEvents = 9

// EventInfo describes one Table I row.
type EventInfo struct {
	ID   EventID
	Code uint16 // AMD family-15h PERF_CTL event select code
	Name string
}

// Events is Table I verbatim.
var Events = [NumEvents]EventInfo{
	{RetiredUOP, 0x0c1, "Retired UOP"},
	{FPUPipeAssignment, 0x000, "FPU Pipe Assignment"},
	{InstructionCacheFetches, 0x080, "Instruction Cache Fetches"},
	{DataCacheAccesses, 0x040, "Data Cache Accesses"},
	{RequestToL2Cache, 0x07d, "Request To L2 Cache"},
	{RetiredBranches, 0x0c2, "Retired Branch Instructions"},
	{RetiredMispredBranches, 0x0c3, "Retired Mispredicted Branch Instructions"},
	{L2CacheMisses, 0x07e, "L2 Cache Misses"},
	{DispatchStalls, 0x0d1, "Dispatch Stalls"},
	{CPUClocksNotHalted, 0x076, "CPU Clocks not Halted"},
	{RetiredInstructions, 0x0c0, "Retired Instructions"},
	{MABWaitCycles, 0x069, "MAB Wait Cycles"},
}

// Info returns the Table I row for id.
func Info(id EventID) EventInfo { return Events[int(id)-1] }

// EventVec holds one count (or rate) per Table I event, indexed by
// EventID-1. The zero value is all-zero counts.
type EventVec [NumEvents]float64

// Get returns the entry for id. The pointer receiver keeps a call from
// copying the 96-byte vector; a non-addressable vector (a call result,
// a map value) is read through a local.
func (v *EventVec) Get(id EventID) float64 { return v[int(id)-1] }

// Set assigns the entry for id.
func (v *EventVec) Set(id EventID, x float64) { v[int(id)-1] = x }

// Add accumulates o into v element-wise.
func (v *EventVec) Add(o EventVec) {
	for i := range v {
		v[i] += o[i]
	}
}

// Scale multiplies every entry by k and returns the result.
func (v EventVec) Scale(k float64) EventVec {
	for i := range v {
		v[i] *= k
	}
	return v
}

// PowerEvents returns the E1–E9 prefix used by the dynamic power model.
func (v *EventVec) PowerEvents() [NumPowerEvents]float64 {
	var out [NumPowerEvents]float64
	copy(out[:], v[:NumPowerEvents])
	return out
}

// Microarchitectural constants used by the paper's interval analysis
// (Equations 5 and 6).
const (
	// IssueWidth is the retire/issue width assumed by the event
	// predictor's interval analysis. AMD family 15h decodes and retires
	// up to four macro-ops per cycle.
	IssueWidth = 4.0

	// MisBranchPen is the branch misprediction penalty in cycles used to
	// approximate discarded cycles (Equation 5).
	MisBranchPen = 20.0
)

// Topology describes the core/compute-unit organization of a platform.
type Topology struct {
	Name         string
	NumCUs       int // compute units (FX: CU = 2 cores sharing L2; Phenom: 1 core per "CU")
	CoresPerCU   int
	L2PerCUBytes int64
	L3Bytes      int64
	VF           VFTable
	// HasPowerGating reports whether CU-level power gating is available
	// (FX-8320 yes, Phenom II no).
	HasPowerGating bool
}

// NumCores returns the total core count.
func (t Topology) NumCores() int { return t.NumCUs * t.CoresPerCU }

// CUOf returns the compute unit that owns core c.
func (t Topology) CUOf(core int) int { return core / t.CoresPerCU }

// FX8320 is the paper's primary platform: 4 CUs × 2 cores, 2 MB L2 per CU,
// 8 MB shared L3.
var FX8320 = Topology{
	Name:           "AMD FX-8320",
	NumCUs:         4,
	CoresPerCU:     2,
	L2PerCUBytes:   2 << 20,
	L3Bytes:        8 << 20,
	VF:             FX8320VFTable,
	HasPowerGating: true,
}

// PhenomII is the secondary platform: 6 cores, 512 KB private L2 each,
// 6 MB L3, no power gating.
var PhenomII = Topology{
	Name:           "AMD Phenom II X6 1090T",
	NumCUs:         6,
	CoresPerCU:     1,
	L2PerCUBytes:   512 << 10,
	L3Bytes:        6 << 20,
	VF:             PhenomIIVFTable,
	HasPowerGating: false,
}

// Timing constants of the measurement methodology (Section II).
const (
	// PowerSamplePeriod is the Hall-effect sensor sampling period.
	PowerSamplePeriodMS = 20
	// DecisionIntervalMS is the DVFS decision interval: ten power
	// samples per decision.
	DecisionIntervalMS = 200
)
