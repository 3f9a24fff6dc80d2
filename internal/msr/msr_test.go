package msr

import (
	"errors"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/fxsim"
	"ppep/internal/workload"
)

func newDevice(t *testing.T) (*Device, *fxsim.Chip) {
	t.Helper()
	cfg := fxsim.DefaultFX8320Config()
	cfg.IdealSensor = true
	chip := fxsim.New(cfg)
	return Open(chip), chip
}

func TestEncodeDecodeCtl(t *testing.T) {
	for _, ev := range arch.Events {
		v := EncodeCtl(ev.Code)
		code, enabled := DecodeCtl(v)
		if !enabled {
			t.Errorf("event %#x: enable bit lost", ev.Code)
		}
		if code != ev.Code {
			t.Errorf("event %#x decoded as %#x", ev.Code, code)
		}
	}
	if _, enabled := DecodeCtl(0); enabled {
		t.Error("zero value must be disabled")
	}
}

func TestRegisterAddresses(t *testing.T) {
	if PerfCtl(0) != 0xC0010200 || PerfCtr(0) != 0xC0010201 {
		t.Error("slot 0 addresses wrong")
	}
	if PerfCtl(5) != 0xC001020A || PerfCtr(5) != 0xC001020B {
		t.Error("slot 5 addresses wrong")
	}
}

func TestPStateControl(t *testing.T) {
	d, chip := newDevice(t)
	// P0 = VF5 initially.
	v, err := d.Rdmsr(0, PStateStatus)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("initial P-state %d, want P0", v)
	}
	// Write P3 on core 2 → CU 1 at VF2.
	if err := d.Wrmsr(2, PStateControl, 3); err != nil {
		t.Fatal(err)
	}
	if chip.PState(1) != arch.VF2 {
		t.Errorf("CU1 at %v, want VF2", chip.PState(1))
	}
	// Status read on the same CU's sibling core agrees.
	v, err = d.Rdmsr(3, PStateStatus)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("status %d, want 3", v)
	}
	// Other CUs untouched.
	if chip.PState(0) != arch.VF5 {
		t.Error("CU0 changed unexpectedly")
	}
	// Invalid index rejected.
	if err := d.Wrmsr(0, PStateControl, 9); err == nil {
		t.Error("bad P-state index accepted")
	}
	// Status is read-only.
	if err := d.Wrmsr(0, PStateStatus, 1); err == nil {
		t.Error("status write accepted")
	}
}

func TestCounterProgramAndRead(t *testing.T) {
	d, chip := newDevice(t)
	// Program slot 0 with Retired Instructions on core 0.
	code := arch.Info(arch.RetiredInstructions).Code
	if err := d.Wrmsr(0, PerfCtl(0), EncodeCtl(code)); err != nil {
		t.Fatal(err)
	}
	if err := chip.Bind(0, workload.BenchA(), true); err != nil {
		t.Fatal(err)
	}
	chip.TickN(200)
	v, err := d.Rdmsr(0, PerfCtr(0))
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Error("counter did not advance")
	}
	// Zero it, run more, read again.
	if err := d.Wrmsr(0, PerfCtr(0), 0); err != nil {
		t.Fatal(err)
	}
	chip.TickN(200)
	v2, err := d.Rdmsr(0, PerfCtr(0))
	if err != nil {
		t.Fatal(err)
	}
	if v2 == 0 {
		t.Error("counter did not advance after reset")
	}
	// Rough steadiness: bench_A is steady, so two equal windows should
	// count within a few percent of each other.
	ratio := float64(v2) / float64(v)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("window ratio %v", ratio)
	}
	// Disabled slot stays put.
	if err := d.Wrmsr(0, PerfCtl(1), 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Rdmsr(0, PerfCtr(1)); v != 0 {
		t.Errorf("disabled slot counted %d", v)
	}
}

func TestUnmappedAndBadCore(t *testing.T) {
	d, _ := newDevice(t)
	if _, err := d.Rdmsr(0, 0xDEAD); err == nil {
		t.Error("unmapped read accepted")
	}
	if err := d.Wrmsr(0, 0xDEAD, 1); err == nil {
		t.Error("unmapped write accepted")
	}
	if _, err := d.Rdmsr(99, PStateStatus); err == nil {
		t.Error("bad core read accepted")
	}
	if err := d.Wrmsr(99, PerfCtl(0), 1); err == nil {
		t.Error("bad core write accepted")
	}
	// PERF_CTL reads are tolerated (return zero).
	if _, err := d.Rdmsr(0, PerfCtl(0)); err != nil {
		t.Errorf("ctl read: %v", err)
	}
}

// TestFaultInjection covers the service-hardening knob: at a configured
// rate, register operations fail with ErrTransient; the stream is
// deterministic per seed; rate 0 never faults.
func TestFaultInjection(t *testing.T) {
	dev, _ := newDevice(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := dev.Rdmsr(0, PerfCtr(0)); err != nil {
			t.Fatalf("fault with injection disabled: %v", err)
		}
	}

	dev.InjectFaults(0.2, 11)
	var faults int
	for i := 0; i < n; i++ {
		_, err := dev.Rdmsr(0, PerfCtr(0))
		if err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("injected fault is %v, want ErrTransient", err)
			}
			faults++
		}
	}
	got := float64(faults) / n
	if got < 0.15 || got > 0.25 {
		t.Errorf("observed fault rate %.3f for configured 0.2", got)
	}

	// Same seed, same decisions: the fault stream must reproduce.
	replay := func() []int {
		d2, _ := newDevice(t)
		d2.InjectFaults(0.2, 11)
		var hits []int
		for i := 0; i < 200; i++ {
			if _, err := d2.Rdmsr(0, PerfCtr(0)); err != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := replay(), replay()
	if len(a) == 0 {
		t.Fatal("no faults in 200 draws at rate 0.2")
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("fault stream not deterministic: %v vs %v", a, b)
		}
	}

	// Writes fault from the same stream.
	dev.InjectFaults(1, 3)
	if err := dev.Wrmsr(0, PerfCtr(0), 0); !errors.Is(err, ErrTransient) {
		t.Errorf("write at rate 1 returned %v, want ErrTransient", err)
	}
}

// TestDecodeAddresses checks the address decoder against the register
// map spelled out register by register: PERF_CTL[i] at 0xC0010200+2i,
// PERF_CTR[i] at 0xC0010201+2i for i = 0..5, the two P-state registers,
// and nothing else in or around that range.
func TestDecodeAddresses(t *testing.T) {
	type reg struct {
		kind regKind
		slot int
	}
	want := map[uint32]reg{
		PStateControl: {regPStateControl, 0},
		PStateStatus:  {regPStateStatus, 0},
	}
	for i := 0; i < 6; i++ {
		want[0xC0010200+2*uint32(i)] = reg{regCtl, i}
		want[0xC0010201+2*uint32(i)] = reg{regCtr, i}
	}
	for _, addr := range []uint32{0, 0xDEAD, PerfCtlBase - 1, 0xFFFFFFFF} {
		if kind, _ := decode(addr); kind != regUnmapped {
			t.Errorf("%#x decoded as kind %d, want unmapped", addr, kind)
		}
	}
	for addr := uint32(0xC0010000); addr < 0xC0010300; addr++ {
		kind, slot := decode(addr)
		w, mapped := want[addr]
		if !mapped {
			if kind != regUnmapped {
				t.Errorf("%#x decoded as kind %d slot %d, want unmapped", addr, kind, slot)
			}
			continue
		}
		if kind != w.kind || slot != w.slot {
			t.Errorf("%#x decoded as kind %d slot %d, want kind %d slot %d", addr, kind, slot, w.kind, w.slot)
		}
	}
}
