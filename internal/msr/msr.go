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

// NumCounterRegs is the number of counter registers per core: each
// slot's PERF_CTL and PERF_CTR. ProgramCounters numbers them in address
// order, so counter register g is at PerfCtlBase+g: PERF_CTL[g/2] for
// an even g, PERF_CTR[g/2] for an odd one.
const NumCounterRegs = 2 * pmc.CountersPerCore

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
// Rdmsr and Wrmsr access one register. ReadCounters and ProgramCounters
// do one core's share of a multiplexing window in one call, as
// msr-safe's batch ioctl does on hardware; register for register, they
// do what the equivalent Rdmsr and Wrmsr sequence does, fault draws
// included.
//
// Device is not safe for concurrent use: like the real /dev/cpu/*/msr
// file descriptors, it belongs to the single sampling loop.
type Device struct {
	chip   *fxsim.Chip
	faults faultInjector
	// faultErrs holds each counter register's transient-fault error per
	// core, formatted once when injection is switched on, so the group
	// calls fail without formatting. Index g < NumCounterRegs is the
	// write of counter register g; NumCounterRegs+slot is the read of
	// PERF_CTR[slot].
	faultErrs [][NumCounterRegs + pmc.CountersPerCore]error
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
	if rate > 0 && d.faultErrs == nil {
		d.faultErrs = make([][NumCounterRegs + pmc.CountersPerCore]error, len(d.files))
		for core := range d.faultErrs {
			errs := &d.faultErrs[core]
			for g := 0; g < NumCounterRegs; g++ {
				errs[g] = faultError("wrmsr", core, PerfCtlBase+uint32(g))
			}
			for slot := 0; slot < pmc.CountersPerCore; slot++ {
				errs[NumCounterRegs+slot] = faultError("rdmsr", core, PerfCtr(slot))
			}
		}
	}
}

// faultError is the injected transient fault of one register operation.
func faultError(op string, core int, addr uint32) error {
	return fmt.Errorf("msr: %s core %d reg %#x: %w", op, core, addr, ErrTransient)
}

// errCoreRange is the error of an operation on a core the chip lacks.
var errCoreRange = errors.New("msr: core out of range")

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

// firstHit draws the faults of operations from..n-1 in order, stopping
// at the first that hits, and returns its index, or n if none does. A
// group call draws its registers' faults up front: they do not depend
// on the registers' effects.
func (f *faultInjector) firstHit(from, n int) int {
	if f.rate <= 0 {
		return n
	}
	for i := from; i < n; i++ {
		if f.hit() {
			return i
		}
	}
	return n
}

// Rdmsr reads a register on a core.
func (d *Device) Rdmsr(core int, addr uint32) (uint64, error) {
	if d.faults.hit() {
		return 0, faultError("rdmsr", core, addr)
	}
	cf := d.file(core)
	if cf == nil {
		return 0, errCoreRange
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
		return faultError("wrmsr", core, addr)
	}
	cf := d.file(core)
	if cf == nil {
		return errCoreRange
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
		return cf.Program(slot, selectCode(val))
	case regCtr:
		return cf.Write(slot, val)
	default:
		return fmt.Errorf("msr: unmapped register %#x", addr)
	}
}

// selectCode is the event code a PERF_CTL value programs: its event
// select, or 0xFFFF (no event) with the enable bit clear.
func selectCode(ctl uint64) uint16 {
	code, enabled := DecodeCtl(ctl)
	if !enabled {
		return 0xFFFF
	}
	return code
}

// ReadCounters reads PERF_CTR[from..5] of a core into v[from..5], as
// Rdmsr does register by register. It stops at the first register that
// fails and returns its slot with the error; otherwise it returns
// pmc.CountersPerCore and nil. from is 0..6; v[:from] is left alone.
//
//ppep:hotpath
func (d *Device) ReadCounters(core, from int, v *[pmc.CountersPerCore]uint64) (int, error) {
	cf := d.file(core)
	if cf == nil {
		return d.noCore(from, pmc.CountersPerCore)
	}
	end := d.faults.firstHit(from, pmc.CountersPerCore)
	counts := cf.Counts()
	copy(v[from:end], counts[from:end])
	if end < pmc.CountersPerCore {
		return end, d.faultErrs[core][NumCounterRegs+end]
	}
	return end, nil
}

// ProgramCounters writes counter registers from..NumCounterRegs-1 of a
// core, as Wrmsr does register by register: each slot's PERF_CTL gets
// ctl[slot], and then its PERF_CTR is zeroed. It stops at the first
// register that fails and returns its index with the error; otherwise
// it returns NumCounterRegs and nil. from is 0..NumCounterRegs.
//
//ppep:hotpath
func (d *Device) ProgramCounters(core, from int, ctl *[pmc.CountersPerCore]uint64) (int, error) {
	cf := d.file(core)
	if cf == nil {
		return d.noCore(from, NumCounterRegs)
	}
	end := d.faults.firstHit(from, NumCounterRegs)
	for g := from; g < end; g++ {
		if slot := g >> 1; g&1 == 0 {
			cf.Select(slot, selectCode(ctl[slot]))
		} else {
			cf.Set(slot, 0)
		}
	}
	if end < NumCounterRegs {
		return end, d.faultErrs[core][end]
	}
	return end, nil
}

// noCore is a group call's failure on a core out of range: like Rdmsr
// and Wrmsr, the first register draws its fault and then fails the core
// check, with the range error whether or not the draw hit.
func (d *Device) noCore(from, n int) (int, error) {
	if from >= n {
		return n, nil
	}
	d.faults.hit()
	return from, errCoreRange
}
