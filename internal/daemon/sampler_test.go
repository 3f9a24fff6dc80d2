package daemon

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fxsim"
	"ppep/internal/msr"
	"ppep/internal/pmc"
	"ppep/internal/trace"
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

// registerIO is a device with only the per-register calls.
type registerIO interface {
	Rdmsr(core int, addr uint32) (uint64, error)
	Wrmsr(core int, addr uint32, val uint64) error
}

// perRegister gives a per-register device the group calls, one Rdmsr or
// Wrmsr per register in the order msr.Device's own group calls take
// them: the reference those are checked against.
type perRegister struct{ registerIO }

func (p perRegister) ReadCounters(core, from int, v *[pmc.CountersPerCore]uint64) (int, error) {
	for slot := from; slot < pmc.CountersPerCore; slot++ {
		x, err := p.Rdmsr(core, msr.PerfCtr(slot))
		if err != nil {
			return slot, err
		}
		v[slot] = x
	}
	return pmc.CountersPerCore, nil
}

func (p perRegister) ProgramCounters(core, from int, ctl *[pmc.CountersPerCore]uint64) (int, error) {
	for g := from; g < msr.NumCounterRegs; g++ {
		var val uint64
		if g%2 == 0 {
			val = ctl[g/2]
		}
		if err := p.Wrmsr(core, msr.PerfCtlBase+uint32(g), val); err != nil {
			return g, err
		}
	}
	return msr.NumCounterRegs, nil
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
	s := newTestSampler(t, perRegister{&fakeMSR{ctrVal: 1000}}, 2)
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
	s := newTestSampler(t, perRegister{&fakeMSR{ctrVal: 300}}, 1)
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
	s := newTestSampler(t, perRegister{dev}, 1)
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
	s := newTestSampler(t, perRegister{dev}, 1)
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

// recordingMSR forwards every register operation to dev and logs it.
// The operation with index failOp (counting from 0) fails instead of
// being forwarded; failOp < 0 fails none. Its group calls are its own,
// not perRegister's: they log and forward register by register.
type recordingMSR struct {
	dev    registerIO
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

func (r *recordingMSR) ReadCounters(core, from int, v *[pmc.CountersPerCore]uint64) (int, error) {
	for slot := from; slot < pmc.CountersPerCore; slot++ {
		addr := msr.PerfCtrBase + 2*uint32(slot)
		r.ops = append(r.ops, regOp{core: core, addr: addr})
		if len(r.ops)-1 == r.failOp {
			return slot, errFakeTransient
		}
		x, err := r.dev.Rdmsr(core, addr)
		if err != nil {
			return slot, err
		}
		v[slot] = x
	}
	return pmc.CountersPerCore, nil
}

func (r *recordingMSR) ProgramCounters(core, from int, ctl *[pmc.CountersPerCore]uint64) (int, error) {
	for g := from; g < msr.NumCounterRegs; g++ {
		op := regOp{write: true, core: core, addr: msr.PerfCtlBase + uint32(g)}
		if g%2 == 0 {
			op.val = ctl[g/2]
		}
		r.ops = append(r.ops, op)
		if len(r.ops)-1 == r.failOp {
			return g, errFakeTransient
		}
		if err := r.dev.Wrmsr(core, op.addr, op.val); err != nil {
			return g, err
		}
	}
	return msr.NumCounterRegs, nil
}

// namedMSR reads every counter register as a value that names its core
// and address, and P0 from the P-state status register, so a count
// read into the wrong slot or core shows in the interval.
type namedMSR struct{}

func (namedMSR) Rdmsr(core int, addr uint32) (uint64, error) {
	if addr == msr.PStateStatus {
		return 0, nil
	}
	return uint64(core)<<16 | uint64(addr&0xFFFF), nil
}

func (namedMSR) Wrmsr(int, uint32, uint64) error { return nil }

// opsPerInterval is the register traffic of one 200 ms interval on the
// 8-core FX-8320: every 20 ms window reads the live group's six counters
// and programs the other group's six selects and zeroes its six
// counters on each core, and the interval ends with one P-state status
// read per core.
const opsPerInterval = 10*8*(6+12) + 8

// intervalRun is what one sampled interval showed: the register
// operations, the retry and failure counts, and the interval or the
// error that ended it.
type intervalRun struct {
	ops      []regOp
	counters CounterSnapshot
	iv       trace.Interval
	err      string
}

// sampleInterval samples one interval of the 8-core FX-8320 through a
// recording device wrapped by wrap, with the operation failOp of the
// interval failing once and the given retry attempts.
func sampleInterval(t *testing.T, wrap func(*recordingMSR) MSR, failOp, attempts int) intervalRun {
	t.Helper()
	rec := &recordingMSR{dev: namedMSR{}, failOp: -1}
	s := newTestSampler(t, wrap(rec), 8)
	var c Counters
	s.SetRetry(Retry{Attempts: attempts}, &c)
	rec.ops, rec.failOp = nil, failOp // the initial group-0 programming is not part of the interval
	var run intervalRun
	var err error
	for w := 0; w < 10 && err == nil; w++ {
		err = s.OnWindow(20)
	}
	if err == nil {
		run.iv, err = s.EndInterval(1.0, 200, 318)
	}
	if err != nil {
		run.err = err.Error()
	}
	run.ops, run.counters = rec.ops, c.Snapshot()
	return run
}

// groupDevices are the two ways a device gets its group calls: the
// per-register reference, and a device with group calls of its own.
var groupDevices = []struct {
	name string
	wrap func(*recordingMSR) MSR
}{
	{"per-register", func(r *recordingMSR) MSR { return perRegister{r} }},
	{"group", func(r *recordingMSR) MSR { return r }},
}

// TestSamplerRegisterTrace pins the register path of one interval: the
// order, the addresses and the written values of every operation, as
// the AMD family-15h layout and Table I spell them. The fault-injection
// stream draws once per operation, so a seeded faulted run reproduces
// only while this sequence holds. Both the per-register reference and a
// device with its own group calls must issue it. Then every operation
// of the interval fails once, with one attempt and with three: both
// devices must give the same operations, counters and interval or
// error. With three attempts the failed operation is retried once in
// place and the interval is the fault-free one; with one attempt the
// interval ends at the failed operation.
func TestSamplerRegisterTrace(t *testing.T) {
	const cores = 8
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

	var clean intervalRun
	for _, dev := range groupDevices {
		run := sampleInterval(t, dev.wrap, -1, 1)
		if run.err != "" {
			t.Fatalf("%s: %s", dev.name, run.err)
		}
		if len(run.ops) != len(want) {
			t.Fatalf("%s: interval issued %d register operations, want %d", dev.name, len(run.ops), len(want))
		}
		for i := range want {
			if run.ops[i] != want[i] {
				t.Fatalf("%s: operation %d is %+v, want %+v", dev.name, i, run.ops[i], want[i])
			}
		}
		clean = run
	}

	for _, attempts := range []int{1, 3} {
		for failOp := 0; failOp < opsPerInterval; failOp++ {
			ref := sampleInterval(t, groupDevices[0].wrap, failOp, attempts)
			got := sampleInterval(t, groupDevices[1].wrap, failOp, attempts)
			if !slices.Equal(got.ops, ref.ops) || got.counters != ref.counters ||
				got.err != ref.err || !reflect.DeepEqual(got.iv, ref.iv) {
				t.Fatalf("attempts %d, operation %d fails: group device %+v / %q, per-register %+v / %q",
					attempts, failOp, got.counters, got.err, ref.counters, ref.err)
			}
			wantOps := slices.Concat(want[:failOp+1], want[failOp:])
			wantCounters := CounterSnapshot{MSRRetries: 1}
			if attempts == 1 {
				wantOps = want[:failOp+1]
				wantCounters = CounterSnapshot{MSRFailures: 1}
				if ref.err == "" {
					t.Fatalf("attempts 1, operation %d fails: the interval did not fail", failOp)
				}
			} else if ref.err != "" || !reflect.DeepEqual(ref.iv, clean.iv) {
				t.Fatalf("attempts 3, operation %d fails: interval differs from the fault-free one (%s)", failOp, ref.err)
			}
			if !slices.Equal(ref.ops, wantOps) || ref.counters != wantCounters {
				t.Fatalf("attempts %d, operation %d fails: %d operations and counters %+v, want %d and %+v",
					attempts, failOp, len(ref.ops), ref.counters, len(wantOps), wantCounters)
			}
		}
	}
}

// TestSamplerOnWindowAllocs pins the window path at zero allocations:
// 48 counter reads and 96 register writes, in one ReadCounters and one
// ProgramCounters call per core, through the real MSR device.
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

// TestDeviceGroupCallsMatchPerRegister drives msr.Device's group calls
// and perRegister over a twin device, on twin busy chips with the same
// fault stream (none, and a 20% fault rate), through random cores (one
// past the last included), starting registers and PERF_CTL values.
// Every call must stop at the same register with the same error and
// read the same values, and the counter files must hold the same counts
// after every call and tick.
func TestDeviceGroupCallsMatchPerRegister(t *testing.T) {
	for _, rate := range []float64{0, 0.2} {
		testGroupCallsMatch(t, rate)
	}
}

func testGroupCallsMatch(t *testing.T, rate float64) {
	open := func() (*msr.Device, *fxsim.Chip) {
		chip := busyChip(t, false)
		dev := msr.Open(chip)
		dev.InjectFaults(rate, 5)
		return dev, chip
	}
	group, gchip := open()
	refDev, rchip := open()
	ref := perRegister{refDev}
	cores := gchip.Topology().NumCores()
	rng := rand.New(rand.NewSource(3))
	ctlValues := []uint64{0, msr.EncodeCtl(0x0c0), msr.EncodeCtl(0x076), msr.EncodeCtl(0xfff), 0x0c0}
	for i := 0; i < 4000; i++ {
		core := rng.Intn(cores + 1)
		var gi, ri int
		var gerr, rerr error
		if rng.Intn(2) == 0 {
			from := rng.Intn(pmc.CountersPerCore + 1)
			var gv, rv [pmc.CountersPerCore]uint64
			gi, gerr = group.ReadCounters(core, from, &gv)
			ri, rerr = ref.ReadCounters(core, from, &rv)
			if gv != rv {
				t.Fatalf("rate %g, call %d: ReadCounters(%d, %d) read %v, per register %v", rate, i, core, from, gv, rv)
			}
		} else {
			from := rng.Intn(msr.NumCounterRegs + 1)
			var ctl [pmc.CountersPerCore]uint64
			for slot := range ctl {
				ctl[slot] = ctlValues[rng.Intn(len(ctlValues))]
			}
			gi, gerr = group.ProgramCounters(core, from, &ctl)
			ri, rerr = ref.ProgramCounters(core, from, &ctl)
		}
		if gi != ri || (gerr == nil) != (rerr == nil) {
			t.Fatalf("rate %g, call %d on core %d: group call stopped at %d (%v), per register at %d (%v)", rate, i, core, gi, gerr, ri, rerr)
		}
		// Past the last core the group call reports the range error
		// where Rdmsr and Wrmsr may report the fault they drew first.
		if core < cores && gerr != nil && gerr.Error() != rerr.Error() {
			t.Fatalf("rate %g, call %d: group call failed with %q, per register with %q", rate, i, gerr, rerr)
		}
		if rng.Intn(4) == 0 {
			gchip.TickN(1)
			rchip.TickN(1)
		}
		for c := 0; c < cores; c++ {
			if g, r := gchip.CounterFile(c).Counts(), rchip.CounterFile(c).Counts(); g != r {
				t.Fatalf("rate %g, call %d: core %d counts %v, per register %v", rate, i, c, g, r)
			}
		}
	}
}

// faultIntervals is the length of one FuzzSamplerFaults run, counted in
// completed or skipped intervals.
const faultIntervals = 6

// faultedRun drives the service loop on a busy FX-8320 for
// faultIntervals intervals under injected MSR and diode faults, with
// three attempts per operation, through msr.Device's group calls or,
// with perReg, through perRegister over the same device. It returns the
// daemon's counters and every table it published.
func faultedRun(t *testing.T, perReg bool, seed int64, msrRate, hwmonRate float64) (CounterSnapshot, []*core.PredictionTable) {
	t.Helper()
	d, err := AttachOpts(busyChip(t, false), models(t), nil, Options{HistoryCap: 4, Retry: Retry{Attempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(msrRate, hwmonRate, seed)
	if perReg {
		d.sampler.dev = perRegister{d.sampler.dev}
	}
	var tables []*core.PredictionTable
	d.OnInterval = func(Record) { tables = append(tables, d.Predictions()) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	d.Throttle = func() {
		if n++; n == faultIntervals {
			cancel()
		}
	}
	if err := d.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	return d.Counters().Snapshot(), tables
}

// tableBits lists every field of a prediction table, floats as their
// bit patterns.
func tableBits(t *core.PredictionTable) []uint64 {
	f := func(x float64) uint64 { return math.Float64bits(x) }
	bits := []uint64{t.Seq, f(float64(t.TimeS)), f(float64(t.DurS)), uint64(t.MeasuredVF),
		f(float64(t.MeasPowerW)), f(float64(t.TempK))}
	for _, r := range t.Rows {
		bits = append(bits, uint64(r.VF), f(float64(r.CPI)), f(float64(r.TotalIPS)), f(float64(r.ChipW)),
			f(float64(r.IdleW)), f(float64(r.DynW)), f(float64(r.IntervalEnergyJ)), f(float64(r.JPerInst)), f(float64(r.EDP)))
	}
	return bits
}

// FuzzSamplerFaults runs the service loop under injected MSR and diode
// faults at fuzzed rates in [0, 1) and a fuzzed seed, once through
// msr.Device's group calls and once through the per-register reference.
// Both must count the same retries, failures, skips and intervals and
// publish the same tables bit for bit, and every published table must
// pass Validate.
func FuzzSamplerFaults(f *testing.F) {
	f.Add(int64(7), 0.12, 0.15)
	f.Add(int64(1), 0.0, 0.0)
	f.Add(int64(2), 0.01, 0.0)
	f.Add(int64(5), 0.05, 0.3)
	f.Add(int64(3), 0.3, 0.5)
	f.Add(int64(4), 0.9, 0.99)
	f.Fuzz(func(t *testing.T, seed int64, msrRate, hwmonRate float64) {
		if !(msrRate >= 0 && msrRate < 1 && hwmonRate >= 0 && hwmonRate < 1) {
			t.Skip("fault rates outside [0, 1)")
		}
		gotCounters, got := faultedRun(t, false, seed, msrRate, hwmonRate)
		wantCounters, want := faultedRun(t, true, seed, msrRate, hwmonRate)
		if gotCounters != wantCounters {
			t.Fatalf("group calls count %+v, per register %+v", gotCounters, wantCounters)
		}
		if len(got) != len(want) {
			t.Fatalf("group calls published %d tables, per register %d", len(got), len(want))
		}
		for i := range got {
			if err := got[i].Validate(); err != nil {
				t.Fatalf("published table %d: %v", i, err)
			}
			if !slices.Equal(tableBits(got[i]), tableBits(want[i])) {
				t.Fatalf("published table %d differs: group calls %+v, per register %+v", i, *got[i], *want[i])
			}
		}
	})
}
