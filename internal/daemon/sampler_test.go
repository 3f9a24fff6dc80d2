package daemon

import (
	"errors"
	"math"
	"testing"
	"time"

	"ppep/internal/arch"
	"ppep/internal/fxsim"
	"ppep/internal/msr"
)

// fakeMSR is a scriptable register device: every counter read returns
// ctrVal, the P-state status reads pstate, and the next failNext
// operations fail with a transient error.
type fakeMSR struct {
	ctrVal   uint64
	pstate   uint64
	failNext int
	ops      int
	failures int
}

var errFakeTransient = errors.New("fake transient fault")

func (f *fakeMSR) gate() error {
	f.ops++
	if f.failNext > 0 {
		f.failNext--
		f.failures++
		return errFakeTransient
	}
	return nil
}

func (f *fakeMSR) Rdmsr(core int, addr uint32) (uint64, error) {
	if err := f.gate(); err != nil {
		return 0, err
	}
	if addr == msr.PStateStatus {
		return f.pstate, nil
	}
	return f.ctrVal, nil
}

func (f *fakeMSR) Wrmsr(core int, addr uint32, val uint64) error {
	return f.gate()
}

func newTestSampler(t *testing.T, dev MSR, cores int) *Sampler {
	t.Helper()
	s, err := NewSampler(dev, cores, arch.FX8320VFTable)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSamplerPartialInterval covers a group with liveMS == 0: when the
// interval closes after only group 0 completed a window, group 1's
// events must come out zero (unobserved) — not NaN or Inf from a
// division by zero live time.
func TestSamplerPartialInterval(t *testing.T) {
	dev := &fakeMSR{ctrVal: 1000}
	s := newTestSampler(t, dev, 2)
	if err := s.OnWindow(20); err != nil {
		t.Fatal(err)
	}
	iv, err := s.EndInterval(1.0, 200, 318)
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		for _, id := range s.groups[0] {
			got := iv.Counters[core].Get(id)
			want := 1000.0 * 200 / 20
			if got != want {
				t.Errorf("core %d group-0 event E%d = %v, want %v", core, id, got, want)
			}
		}
		for _, id := range s.groups[1] {
			got := iv.Counters[core].Get(id)
			if got != 0 || math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("core %d unobserved group-1 event E%d = %v, want exactly 0", core, id, got)
			}
		}
		// RetiredInstructions is E11 (group 1): with that group never
		// sampled, the core must read as idle rather than garbage-busy.
		if iv.Busy[core] {
			t.Errorf("core %d busy from an unobserved instruction counter", core)
		}
	}
}

// TestSamplerUnequalLiveTime pins the extrapolation arithmetic when the
// two groups covered different shares of the interval: each group's raw
// counts scale by intervalMS over its own live time.
func TestSamplerUnequalLiveTime(t *testing.T) {
	dev := &fakeMSR{ctrVal: 300}
	s := newTestSampler(t, dev, 1)
	if err := s.OnWindow(30); err != nil { // group 0 live for 30 ms
		t.Fatal(err)
	}
	if err := s.OnWindow(10); err != nil { // group 1 live for 10 ms
		t.Fatal(err)
	}
	iv, err := s.EndInterval(1.0, 200, 318)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.groups[0] {
		if got, want := iv.Counters[0].Get(id), 300.0*200/30; math.Abs(got-want) > 1e-9 {
			t.Errorf("group-0 event E%d = %v, want %v", id, got, want)
		}
	}
	for _, id := range s.groups[1] {
		if got, want := iv.Counters[0].Get(id), 300.0*200/10; math.Abs(got-want) > 1e-9 {
			t.Errorf("group-1 event E%d = %v, want %v", id, got, want)
		}
	}
}

// TestSamplerRetryBackoff covers transient read faults mid-window: the
// sampler must retry with doubling backoff, count the retries, and
// succeed without surfacing an error while the budget lasts.
func TestSamplerRetryBackoff(t *testing.T) {
	dev := &fakeMSR{ctrVal: 50}
	s := newTestSampler(t, dev, 1)
	var counters Counters
	var sleeps []time.Duration
	s.SetRetry(Retry{
		Attempts: 4,
		Backoff:  time.Millisecond,
		Sleep:    func(d time.Duration) { sleeps = append(sleeps, d) },
	}, &counters)

	dev.failNext = 2 // first counter read of the window fails twice
	if err := s.OnWindow(20); err != nil {
		t.Fatalf("window with 2 transient faults and 4 attempts failed: %v", err)
	}
	if got := counters.MSRRetries.Load(); got != 2 {
		t.Errorf("MSRRetries = %d, want 2", got)
	}
	if got := counters.MSRFailures.Load(); got != 0 {
		t.Errorf("MSRFailures = %d, want 0", got)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Errorf("backoff sleeps %v, want %v", sleeps, want)
	}
}

// TestSamplerRetryExhaustion covers a fault burst longer than the retry
// budget: the operation fails, the failure is counted, and Reset
// restores a programmable sampler.
func TestSamplerRetryExhaustion(t *testing.T) {
	dev := &fakeMSR{ctrVal: 50}
	s := newTestSampler(t, dev, 1)
	var counters Counters
	s.SetRetry(Retry{Attempts: 3}, &counters)

	dev.failNext = 10 // outlasts 3 attempts
	if err := s.OnWindow(20); err == nil {
		t.Fatal("window with exhausted retry budget did not fail")
	}
	if got := counters.MSRFailures.Load(); got == 0 {
		t.Error("exhausted retries not counted as a failure")
	}
	if got := counters.MSRRetries.Load(); got != 2 {
		t.Errorf("MSRRetries = %d, want 2 (attempts-1)", got)
	}

	// The fault burst has passed; a reset must leave a clean sampler.
	dev.failNext = 0
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.active != 0 {
		t.Error("Reset did not reprogram group 0")
	}
	if err := s.OnWindow(20); err != nil {
		t.Fatal(err)
	}
	iv, err := s.EndInterval(1.0, 200, 318)
	if err != nil {
		t.Fatal(err)
	}
	// Only the post-reset window may contribute counts.
	for _, id := range s.groups[0] {
		if got, want := iv.Counters[0].Get(id), 50.0*200/20; math.Abs(got-want) > 1e-9 {
			t.Errorf("post-reset event E%d = %v, want %v", id, got, want)
		}
	}
}

// TestRetryDefaults pins the zero-value Retry contract: one attempt, no
// sleeping.
func TestRetryDefaults(t *testing.T) {
	var r Retry
	if r.attempts() != 1 {
		t.Errorf("zero Retry attempts() = %d, want 1", r.attempts())
	}
	r.sleep(1) // must not panic or call time.Sleep for zero backoff
}

// regOp is one register operation as a device saw it.
type regOp struct {
	write bool
	core  int
	addr  uint32
	val   uint64
}

// recordingMSR forwards every operation to dev and logs it. The
// operation with index failOp (counting from 0) fails instead of being
// forwarded; failOp < 0 fails none.
type recordingMSR struct {
	dev    MSR
	ops    []regOp
	failOp int
}

func (r *recordingMSR) Rdmsr(core int, addr uint32) (uint64, error) {
	r.ops = append(r.ops, regOp{core: core, addr: addr})
	if len(r.ops)-1 == r.failOp {
		return 0, errFakeTransient
	}
	return r.dev.Rdmsr(core, addr)
}

func (r *recordingMSR) Wrmsr(core int, addr uint32, val uint64) error {
	r.ops = append(r.ops, regOp{write: true, core: core, addr: addr, val: val})
	if len(r.ops)-1 == r.failOp {
		return errFakeTransient
	}
	return r.dev.Wrmsr(core, addr, val)
}

// opsPerInterval is the register traffic of one 200 ms interval on the
// 8-core FX-8320: every 20 ms window reads the live group's six counters
// and programs the other group's six selects and zeroes its six
// counters on each core, and the interval ends with one P-state status
// read per core.
const opsPerInterval = 10*8*(6+12) + 8

// TestSamplerRegisterTrace pins the register path of one interval: the
// order, the addresses and the written values of every operation, as
// the AMD family-15h layout and Table I spell them. The fault-injection
// stream draws once per operation, so a seeded faulted run reproduces
// only while this sequence holds.
func TestSamplerRegisterTrace(t *testing.T) {
	const cores = 8
	rec := &recordingMSR{dev: &fakeMSR{ctrVal: 7}, failOp: -1}
	s := newTestSampler(t, rec, cores)
	rec.ops = nil // the initial group-0 programming is not part of the interval
	for w := 0; w < 10; w++ {
		if err := s.OnWindow(20); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.EndInterval(1.0, 200, 318); err != nil {
		t.Fatal(err)
	}

	// Table I event-select codes, group 0 (E1–E6) and group 1 (E7–E12),
	// with the family-15h enable bit 22.
	codes := [2][6]uint64{
		{0x0c1, 0x000, 0x080, 0x040, 0x07d, 0x0c2},
		{0x0c3, 0x07e, 0x0d1, 0x076, 0x0c0, 0x069},
	}
	var want []regOp
	for w := 0; w < 10; w++ {
		for c := 0; c < cores; c++ {
			for slot := uint32(0); slot < 6; slot++ {
				want = append(want, regOp{core: c, addr: 0xC0010201 + 2*slot})
			}
		}
		next := 1 - w%2
		for c := 0; c < cores; c++ {
			for slot := uint32(0); slot < 6; slot++ {
				want = append(want,
					regOp{write: true, core: c, addr: 0xC0010200 + 2*slot, val: codes[next][slot] | 1<<22},
					regOp{write: true, core: c, addr: 0xC0010201 + 2*slot})
			}
		}
	}
	for c := 0; c < cores; c++ {
		want = append(want, regOp{core: c, addr: 0xC0010063})
	}
	if len(want) != opsPerInterval {
		t.Fatalf("expected trace has %d operations, opsPerInterval says %d", len(want), opsPerInterval)
	}
	if len(rec.ops) != len(want) {
		t.Fatalf("interval issued %d register operations, want %d", len(rec.ops), len(want))
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("operation %d is %+v, want %+v", i, rec.ops[i], want[i])
		}
	}
}

// TestSamplerOnWindowAllocs pins the window path at zero allocations:
// 48 counter reads and 96 register writes through the real MSR device.
func TestSamplerOnWindowAllocs(t *testing.T) {
	cfg := fxsim.DefaultFX8320Config()
	cfg.IdealSensor = true
	chip := fxsim.New(cfg)
	s := newTestSampler(t, msr.Open(chip), chip.Topology().NumCores())
	n := testing.AllocsPerRun(100, func() {
		if err := s.OnWindow(20); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("OnWindow allocates %.1f times, want 0", n)
	}
}
