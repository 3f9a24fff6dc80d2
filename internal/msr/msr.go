// Package msr emulates the model-specific-register interface the paper
// uses to program performance counters and control P-states (msr-tools,
// Section II). Register addresses follow the AMD family-15h layout:
//
//	0xC0010062          P-state Control (write the target P-state index)
//	0xC0010063          P-state Status (current P-state index)
//	0xC0010200 + 2·i    PERF_CTL[i], i = 0..5 (event select)
//	0xC0010201 + 2·i    PERF_CTR[i], i = 0..5 (counter value)
//
// AMD P-state indices count down from the fastest state: P0 is the top VF
// state, P(n−1) the lowest. The device maps them onto the simulator's
// VF1..VFn numbering.
package msr

import (
	"errors"
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/fxsim"
	"ppep/internal/pmc"
)

// ErrTransient marks an injected transient device fault — the emulation
// of the sporadic EIO a real /dev/cpu/*/msr read can return. Callers
// (the daemon's sampler) treat it as retryable.
var ErrTransient = errors.New("transient device fault (injected)")

// Register addresses.
const (
	PStateControl = 0xC0010062
	PStateStatus  = 0xC0010063
	PerfCtlBase   = 0xC0010200
	PerfCtrBase   = 0xC0010201
)

// PerfCtl returns the event-select register address for a counter slot.
func PerfCtl(slot int) uint32 { return PerfCtlBase + 2*uint32(slot) }

// PerfCtr returns the counter register address for a counter slot.
func PerfCtr(slot int) uint32 { return PerfCtrBase + 2*uint32(slot) }

// The enable bit of a PERF_CTL value (bit 22 on family 15h).
const CtlEnable = 1 << 22

// EncodeCtl builds a PERF_CTL value for a Table I event code with the
// enable bit set. Family 15h splits the event select across bits [7:0]
// and [35:32]; all Table I codes fit in 12 bits.
func EncodeCtl(code uint16) uint64 {
	lo := uint64(code) & 0xFF
	hi := (uint64(code) >> 8) & 0xF
	return lo | hi<<32 | CtlEnable
}

// DecodeCtl extracts the event code and enable flag from a PERF_CTL value.
func DecodeCtl(v uint64) (code uint16, enabled bool) {
	code = uint16(v&0xFF) | uint16((v>>32)&0xF)<<8
	return code, v&CtlEnable != 0
}

// Device is the per-core MSR access surface over a simulated chip. It is
// the software-visible path PPEP's sampler uses; the chip must have
// counter files enabled.
//
// Device is not safe for concurrent use: like the real /dev/cpu/*/msr
// file descriptors, it belongs to the single sampling loop.
type Device struct {
	chip   *fxsim.Chip
	faults faultInjector
	// Resolved once at Open: every core's counter file, the CU a core
	// belongs to, and the VF table the P-state registers index.
	files      []*pmc.CounterFile
	coresPerCU int
	tbl        arch.VFTable
}

// Open attaches an MSR device to the chip, enabling its register-level
// counter files.
func Open(chip *fxsim.Chip) *Device {
	chip.EnableCounterFiles()
	topo := chip.Topology()
	d := &Device{chip: chip, coresPerCU: topo.CoresPerCU, tbl: chip.VFTable()}
	d.files = make([]*pmc.CounterFile, topo.NumCores())
	for i := range d.files {
		d.files[i] = chip.CounterFile(i)
	}
	return d
}

// regKind is the class of register an address names.
type regKind uint8

const (
	regUnmapped regKind = iota
	regPStateControl
	regPStateStatus
	regCtl // PERF_CTL[slot]
	regCtr // PERF_CTR[slot]
)

// decode maps a register address to its kind and, for the counter
// registers, its slot. PERF_CTL and PERF_CTR interleave from PerfCtlBase,
// so one offset gives both: its low bit picks the register, the rest the
// slot.
func decode(addr uint32) (regKind, int) {
	switch addr {
	case PStateControl:
		return regPStateControl, 0
	case PStateStatus:
		return regPStateStatus, 0
	}
	if off := addr - PerfCtlBase; off < 2*pmc.CountersPerCore {
		return regCtl + regKind(off&1), int(off >> 1)
	}
	return regUnmapped, 0
}

// file returns a core's counter file, or nil for a core out of range.
func (d *Device) file(core int) *pmc.CounterFile {
	if core < 0 || core >= len(d.files) {
		return nil
	}
	return d.files[core]
}

// InjectFaults makes a fraction rate of subsequent register operations
// fail with ErrTransient, drawn from a deterministic seeded stream —
// the long-running-service hardening knob (`ppepd -fault-msr`). rate 0
// disables injection.
func (d *Device) InjectFaults(rate float64, seed int64) {
	d.faults = newFaultInjector(rate, seed)
}

// faultInjector draws deterministic Bernoulli fault decisions from an
// xorshift64* stream (math/rand's global functions are avoided module-wide
// so seeded runs reproduce bit-for-bit).
type faultInjector struct {
	rate float64
	rng  uint64
}

func newFaultInjector(rate float64, seed int64) faultInjector {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return faultInjector{rate: rate, rng: s}
}

// hit advances the stream and reports whether this operation faults.
func (f *faultInjector) hit() bool {
	if f.rate <= 0 {
		return false
	}
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	u := f.rng * 0x2545F4914F6CDD1D
	return float64(u>>11)/(1<<53) < f.rate
}

// Rdmsr reads a register on a core.
func (d *Device) Rdmsr(core int, addr uint32) (uint64, error) {
	if d.faults.hit() {
		return 0, fmt.Errorf("msr: rdmsr core %d reg %#x: %w", core, addr, ErrTransient)
	}
	cf := d.file(core)
	if cf == nil {
		return 0, fmt.Errorf("msr: core %d out of range", core)
	}
	switch kind, slot := decode(addr); kind {
	case regPStateStatus, regPStateControl:
		cu := core / d.coresPerCU
		return uint64(int(d.tbl.Top()) - int(d.chip.PState(cu))), nil
	case regCtl:
		// Event selects are write-mostly; reads return zero as a real
		// tool would rarely depend on them. Kept simple deliberately.
		return 0, nil
	case regCtr:
		return cf.Read(slot)
	default:
		return 0, fmt.Errorf("msr: unmapped register %#x", addr)
	}
}

// Wrmsr writes a register on a core.
func (d *Device) Wrmsr(core int, addr uint32, val uint64) error {
	if d.faults.hit() {
		return fmt.Errorf("msr: wrmsr core %d reg %#x: %w", core, addr, ErrTransient)
	}
	cf := d.file(core)
	if cf == nil {
		return fmt.Errorf("msr: core %d out of range", core)
	}
	switch kind, slot := decode(addr); kind {
	case regPStateControl:
		idx := int(val)
		if idx < 0 || idx >= len(d.tbl) {
			return fmt.Errorf("msr: P-state index %d out of range", idx)
		}
		vf := arch.VFState(int(d.tbl.Top()) - idx)
		return d.chip.SetPState(core/d.coresPerCU, vf)
	case regPStateStatus:
		return fmt.Errorf("msr: P-state status is read-only")
	case regCtl:
		code, enabled := DecodeCtl(val)
		if !enabled {
			code = 0xFFFF // disable slot
		}
		return cf.Program(slot, code)
	case regCtr:
		return cf.Write(slot, val)
	default:
		return fmt.Errorf("msr: unmapped register %#x", addr)
	}
}
