package daemon

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/dvfs"
	"ppep/internal/fxsim"
	"ppep/internal/pmc"
	"ppep/internal/stats"
	"ppep/internal/trace"
	"ppep/internal/units"
	"ppep/internal/workload"
)

var (
	trainOnce sync.Once
	trained   *core.Models
	trainErr  error
)

func models(t *testing.T) *core.Models {
	t.Helper()
	trainOnce.Do(func() {
		ts := core.TrainingSet{IdleTraces: map[arch.VFState]*trace.Trace{}}
		for _, vf := range arch.FX8320VFTable.States() {
			chip := fxsim.New(fxsim.DefaultFX8320Config())
			tr, err := chip.HeatCool(vf, 40, 80)
			if err != nil {
				trainErr = err
				return
			}
			ts.IdleTraces[vf] = tr
		}
		for _, num := range []string{"429", "458", "433", "416"} {
			b := *workload.SPECByNumber(num)
			b.Instructions = 8e9
			for _, vf := range arch.FX8320VFTable.States() {
				chip := fxsim.New(fxsim.DefaultFX8320Config())
				r := workload.Run{Name: num, Suite: "SPE",
					Members: []workload.Member{{Bench: &b, Threads: 1}}}
				tr, err := chip.Collect(r, fxsim.RunOpts{VF: vf, WarmTempK: 315})
				if err != nil {
					trainErr = err
					return
				}
				ts.Runs = append(ts.Runs, core.RunTrace{Name: num, Suite: "SPE", VF: vf, Trace: tr})
			}
		}
		trained, trainErr = core.Train(ts, arch.FX8320VFTable)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trained
}

// busyChip builds a chip running milc×2 endlessly.
func busyChip(t *testing.T, perCUPlanes bool) *fxsim.Chip {
	t.Helper()
	cfg := fxsim.DefaultFX8320Config()
	cfg.PerCUPlanes = perCUPlanes
	chip := fxsim.New(cfg)
	chip.SetTempK(318)
	run := workload.MultiInstance("433", 2)
	for i := range run.Members {
		b := *run.Members[i].Bench
		b.Instructions = 1e12 // effectively endless
		run.Members[i].Bench = &b
	}
	if _, err := chip.PlaceRun(run, fxsim.PlaceScatter, true); err != nil {
		t.Fatal(err)
	}
	return chip
}

// attach builds a chip running milc×2 with the daemon on it.
func attach(t *testing.T, policy Policy) (*Daemon, *fxsim.Chip) {
	t.Helper()
	chip := busyChip(t, policy != nil)
	d, err := AttachOpts(chip, models(t), policy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, chip
}

func TestDaemonSamplesThroughDevices(t *testing.T) {
	d, _ := attach(t, nil)
	if err := d.RunIntervals(10); err != nil {
		t.Fatal(err)
	}
	recs := d.Records()
	if len(recs) != 10 {
		t.Fatalf("%d records, want 10", len(recs))
	}
	for _, rec := range recs {
		iv := rec.Interval
		// Cores 0 and 2 run the instances; the rest are idle.
		if !iv.Busy[0] || !iv.Busy[2] {
			t.Error("bound cores not seen busy through the MSR path")
		}
		if iv.Busy[1] || iv.Busy[7] {
			t.Error("idle cores seen busy")
		}
		if iv.VF() != arch.VF5 {
			t.Errorf("VF read %v through P-state MSR", iv.VF())
		}
		if iv.TempK < 300 || iv.TempK > 360 {
			t.Errorf("diode temp %v", iv.TempK)
		}
		// All twelve events present on a busy core.
		for e := 0; e < arch.NumEvents; e++ {
			if iv.Counters[0][e] <= 0 {
				t.Errorf("event E%d missing from device-sampled counters", e+1)
			}
		}
	}
}

func TestDaemonEstimatesTrackMeasuredPower(t *testing.T) {
	d, _ := attach(t, nil)
	if err := d.RunIntervals(10); err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for _, rec := range d.Records() {
		errs = append(errs, stats.AbsPctErr(float64(rec.Report.Current().ChipW), rec.Interval.MeasPowerW))
	}
	s := stats.SummarizeAbsErrors(errs)
	if s.Mean > 0.15 {
		t.Errorf("device-path estimation error %.1f%%, want <15%%", 100*s.Mean)
	}
}

// TestDaemonMultiplexedCountsMatchOracle runs the daemon's chip next to
// a twin built the same way but without counter files: same sensor
// seed, workload and VF sequence, ticked in lockstep. The twin's
// multiplexed counters are the oracle for the register path. Every
// counter file truncates each tick's increment to a whole count, so the
// register path reads at most one count per tick low; over the 100
// ticks a group is live, extrapolated ×2 to the interval, the sampler
// may read up to 200 below the mux and never above it. The MSR chip's
// power fields must equal the twin's bit for bit: counter files must
// not perturb the simulation.
func TestDaemonMultiplexedCountsMatchOracle(t *testing.T) {
	cycle := []arch.VFState{arch.VF5, arch.VF2, arch.VF4, arch.VF1, arch.VF3}
	chip, twin := busyChip(t, false), busyChip(t, false)
	next := 0
	policy := PolicyFunc(func(c *fxsim.Chip, _ trace.Interval, _ *core.Report) {
		next++
		if err := c.SetAllPStates(cycle[next%len(cycle)]); err != nil {
			t.Error(err)
		}
	})
	d, err := AttachOpts(chip, models(t), policy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const maxDeficit = 2 * 100 // one count per live tick, extrapolated ×2
	for n := 0; n < 8; n++ {
		if err := d.RunIntervals(1); err != nil {
			t.Fatal(err)
		}
		twin.TickN(arch.DecisionIntervalMS)
		var want trace.Interval
		twin.ReadIntervalInto(&want)
		if err := twin.SetAllPStates(cycle[(n+1)%len(cycle)]); err != nil {
			t.Fatal(err)
		}
		rec, _ := d.Latest()
		got := rec.Interval
		if got.VF() != want.VF() {
			t.Fatalf("interval %d: daemon at %v, twin at %v", n, got.VF(), want.VF())
		}
		if math.Float64bits(got.TruePowerW) != math.Float64bits(want.TruePowerW) ||
			math.Float64bits(got.MeasPowerW) != math.Float64bits(want.MeasPowerW) ||
			chip.TempK() != twin.TempK() {
			t.Errorf("interval %d: MSR chip true/measured power %v/%v at %v K, twin %v/%v at %v K",
				n, got.TruePowerW, got.MeasPowerW, chip.TempK(), want.TruePowerW, want.MeasPowerW, twin.TempK())
		}
		for c := range want.Counters {
			for e := range want.Counters[c] {
				mux, reg := want.Counters[c][e], got.Counters[c][e]
				if deficit := mux - reg; deficit < -1e-9*mux || deficit >= maxDeficit {
					t.Errorf("interval %d core %d E%d: sampler %v, mux %v", n, c, e+1, reg, mux)
				}
			}
		}
		// The comparison must cover live counts, not two zero vectors.
		if got.Counters[0][int(arch.RetiredInstructions)-1] < 1e8 {
			t.Fatalf("interval %d: core 0 retired %v instructions", n, got.Counters[0][int(arch.RetiredInstructions)-1])
		}
	}
}

func TestDaemonPolicyDrivesVF(t *testing.T) {
	policy := PolicyFunc(func(chip *fxsim.Chip, iv trace.Interval, rep *core.Report) {
		_ = chip.SetAllPStates(dvfs.EnergyOptimal(rep))
	})
	d, chip := attach(t, policy)
	if err := d.RunIntervals(6); err != nil {
		t.Fatal(err)
	}
	// The energy policy must have moved the chip off the top state.
	if chip.PState(0) == arch.VF5 {
		t.Error("policy never changed the VF state")
	}
	// And later intervals observe the new state through the MSR path.
	last, _ := d.Latest()
	if last.Interval.VF() == arch.VF5 {
		t.Error("device-sampled VF did not track the policy")
	}
}

func TestDaemonCappingPolicy(t *testing.T) {
	capper := &dvfs.PPEPCapper{Models: models(t), Target: func(units.Seconds) units.Watts { return 40 }}
	policy := PolicyFunc(func(chip *fxsim.Chip, iv trace.Interval, rep *core.Report) {
		capper.Decide(chip, iv)
	})
	d, _ := attach(t, policy)
	if err := d.RunIntervals(8); err != nil {
		t.Fatal(err)
	}
	// After settling, measured power must respect the 40 W budget.
	for _, rec := range d.Records()[2:] {
		if iv := rec.Interval; iv.MeasPowerW > 44 {
			t.Errorf("t=%.1f: %0.1fW over the 40W cap", iv.TimeS, iv.MeasPowerW)
		}
	}
}

func TestDaemonRequiresModels(t *testing.T) {
	chip := fxsim.New(fxsim.DefaultFX8320Config())
	d, err := AttachOpts(chip, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunIntervals(1); err == nil {
		t.Error("daemon without models accepted")
	}
}

// TestAttachRejectsForeignVFTable pins the startup check: models trained
// on a VF table other than the chip's — fewer states, or the same count
// at other operating points — are refused at attach time instead of
// failing the analysis of every interval.
func TestAttachRejectsForeignVFTable(t *testing.T) {
	for name, table := range map[string]arch.VFTable{
		"3 of 5 states": arch.FX8320VFTable[:3],
		"Phenom II":     arch.PhenomIIVFTable,
	} {
		m := *models(t)
		m.Table = table
		if _, err := AttachOpts(fxsim.New(fxsim.DefaultFX8320Config()), &m, nil, Options{}); err == nil {
			t.Errorf("%s: models for another VF table attached", name)
		}
	}
	if _, err := AttachOpts(fxsim.New(fxsim.DefaultFX8320Config()), models(t), nil, Options{}); err != nil {
		t.Errorf("models for the chip's own table refused: %v", err)
	}
}

// TestDaemonRefusesUnusableTable pins the publish gate: an interval
// whose prediction table holds a NaN or a negative power is counted as
// an analysis error and returned as one, and it is neither published nor
// recorded. A model coefficient forced to NaN, or an idle offset pushed
// far below zero, produces each case.
func TestDaemonRefusesUnusableTable(t *testing.T) {
	for name, w0 := range map[string]float64{
		"NaN idle offset":      math.NaN(),
		"negative idle offset": -1e6,
	} {
		m := *models(t)
		idle := *m.Idle
		idle.W0 = append(stats.Poly(nil), m.Idle.W0...)
		idle.W0[0] = w0
		m.Idle = &idle
		d, err := AttachOpts(busyChip(t, false), &m, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = d.RunIntervals(1)
		if err == nil || !strings.Contains(err.Error(), "interval not published") {
			t.Errorf("%s: RunIntervals = %v, want a refused table", name, err)
		}
		if got := d.Counters().AnalyzeErrors.Load(); got != 1 {
			t.Errorf("%s: %d analyze errors counted, want 1", name, got)
		}
		if d.Predictions() != nil || len(d.Records()) != 0 {
			t.Errorf("%s: refused interval was published or recorded", name)
		}
	}
}

// TestDaemonRunTellsRefusalsFromDeviceFaults drives the service loop
// with an idle offset of −1e6, so analysis refuses every interval, and
// counts the register operations through a recording device. A refusal
// must be counted as an analysis error only, and the sampler kept: no
// interval is skipped, and no re-program runs, so the device sees
// exactly one interval's operations per interval. A device failure in
// the same loop still skips the interval and re-programs the sampler.
func TestDaemonRunTellsRefusalsFromDeviceFaults(t *testing.T) {
	m := *models(t)
	idle := *m.Idle
	idle.W0 = append(stats.Poly(nil), m.Idle.W0...)
	idle.W0[0] = -1e6
	m.Idle = &idle
	for _, fail := range []bool{false, true} {
		d, err := AttachOpts(busyChip(t, false), &m, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingMSR{dev: d.sampler.dev, failOp: -1}
		if fail {
			rec.failOp = 100 // core 4's PERF_CTL[2] write in the first window's re-program
		}
		d.sampler.dev = rec
		const intervals = 6
		ctx, cancel := context.WithCancel(context.Background())
		throttles := 0
		d.Throttle = func() {
			if throttles++; throttles == intervals {
				cancel()
			}
		}
		if err := d.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		s := d.Counters().Snapshot()
		ops := len(rec.ops)
		if !fail {
			if s.AnalyzeErrors != intervals || s.SkippedIntervals != 0 {
				t.Errorf("refusals: %d analyze errors, %d skipped, want %d and 0", s.AnalyzeErrors, s.SkippedIntervals, intervals)
			}
			if ops != intervals*opsPerInterval {
				t.Errorf("refusals: %d register operations, want %d: the sampler was re-programmed", ops, intervals*opsPerInterval)
			}
			continue
		}
		// The failed interval stops at its 101st operation; the reset
		// writes every core's group-0 selects and counters; the other
		// intervals sample in full and are refused.
		reset := 8 * 2 * pmc.CountersPerCore
		if s.SkippedIntervals != 1 || s.AnalyzeErrors != intervals-1 {
			t.Errorf("device fault: %d skipped, %d analyze errors, want 1 and %d", s.SkippedIntervals, s.AnalyzeErrors, intervals-1)
		}
		if want := (rec.failOp + 1) + reset + (intervals-1)*opsPerInterval; ops != want {
			t.Errorf("device fault: %d register operations, want %d", ops, want)
		}
	}
}

// TestDaemonHistoryRing pins the service-mode memory bound: with a
// HistoryCap the daemon retains exactly the newest cap records while
// sequence numbers keep counting every completed interval.
func TestDaemonHistoryRing(t *testing.T) {
	chip := busyChip(t, false)
	d, err := AttachOpts(chip, models(t), nil, Options{HistoryCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunIntervals(10); err != nil {
		t.Fatal(err)
	}
	if got := d.Counters().Intervals.Load(); got != 10 {
		t.Errorf("interval counter %d, want 10", got)
	}
	recs := d.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(7 + i); rec.Seq != want {
			t.Errorf("record %d seq %d, want %d (oldest evicted, numbering preserved)", i, rec.Seq, want)
		}
		if rec.Report == nil || len(rec.Interval.Counters) == 0 {
			t.Errorf("record %d incomplete", i)
		}
	}
	if last, ok := d.Latest(); !ok || last.Seq != 10 {
		t.Errorf("Latest seq %d/%v, want 10/true", last.Seq, ok)
	}
}

// TestDaemonRunCancel covers the context-cancellable service loop: Run
// keeps producing intervals until cancellation and then returns the
// context error promptly.
func TestDaemonRunCancel(t *testing.T) {
	chip := busyChip(t, false)
	d, err := AttachOpts(chip, models(t), nil, Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.OnInterval = func(rec Record) {
		if rec.Seq >= 5 {
			cancel()
		}
	}
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not stop after cancellation")
	}
	if got := d.Counters().Intervals.Load(); got < 5 {
		t.Errorf("only %d intervals before cancel, want >= 5", got)
	}
}

// TestDaemonSurvivesInjectedFaults is the long-running hardening
// contract: with 10–15% transient fault rates on both device paths and a
// bounded retry budget, the loop must keep completing intervals — faults
// surface as retry/failure/skip counters, never as a crash or abort.
func TestDaemonSurvivesInjectedFaults(t *testing.T) {
	chip := busyChip(t, false)
	d, err := AttachOpts(chip, models(t), nil, Options{
		HistoryCap: 8,
		Retry:      Retry{Attempts: 4, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(0.12, 0.15, 7)

	ctx, cancel := context.WithCancel(context.Background())
	d.OnInterval = func(rec Record) {
		if d.Counters().Intervals.Load() >= 25 {
			cancel()
		}
	}
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run under faults returned %v, want context.Canceled", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("faulted loop wedged")
	}

	s := d.Counters().Snapshot()
	if s.Intervals < 25 {
		t.Errorf("completed %d intervals under faults, want >= 25", s.Intervals)
	}
	if s.MSRRetries == 0 {
		t.Error("12%% MSR fault rate produced no retries")
	}
	if s.HwmonRetries == 0 && s.HwmonFailures == 0 {
		t.Error("15%% hwmon fault rate produced no retries or failures")
	}
	if len(d.Records()) > 8 {
		t.Errorf("history grew past the ring cap: %d", len(d.Records()))
	}
	// Intervals that did complete under faults must still be sane.
	if last, ok := d.Latest(); !ok {
		t.Error("no record retained")
	} else if last.Interval.TempK < 300 || last.Interval.TempK > 360 {
		t.Errorf("implausible diode value %v under hwmon faults", last.Interval.TempK)
	}
}

func TestSamplerGroupRotation(t *testing.T) {
	chip := fxsim.New(fxsim.DefaultFX8320Config())
	d, err := AttachOpts(chip, models(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := d.sampler
	if s.active != 0 {
		t.Error("sampler must start on group 0")
	}
	if err := s.OnWindow(20); err != nil {
		t.Fatal(err)
	}
	if s.active != 1 {
		t.Error("group did not rotate")
	}
	if err := s.OnWindow(20); err != nil {
		t.Fatal(err)
	}
	if s.active != 0 {
		t.Error("group did not rotate back")
	}
	if math.Abs(s.liveMS[0]-20) > 1e-9 || math.Abs(s.liveMS[1]-20) > 1e-9 {
		t.Errorf("live times %v", s.liveMS)
	}
}

// TestServeIntervalAllocs pins the service-mode per-interval allocation
// ceiling, the same path BenchmarkServeInterval measures: MSR window
// sampling, diode read, PPEP analysis, and the history push, with an
// OnInterval observer attached the way internal/serve chains one. The
// budget is 3 allocs for the interval's owned slices (Counters,
// PerCoreVF, Busy — the history ring retains them, so they cannot be
// pooled), 4 fixed allocs for the analysis (a fresh Report, its PerVF
// backing and the two shared projection arrays), and 2 for the published
// prediction table (the table and its rows — both retained by lock-free
// readers, so they cannot be pooled either); everything else must come
// from pre-sized or reused buffers, the chip's own interval record
// included.
func TestServeIntervalAllocs(t *testing.T) {
	chip := busyChip(t, false)
	d, err := AttachOpts(chip, models(t), nil, Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	d.OnInterval = func(Record) {} // stand-in for serve.Server.Observe
	// Warm up: fill the history ring so steady state excludes ring growth.
	if err := d.RunIntervals(10); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if err := d.RunIntervals(1); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 9 // 29 before the encode/analyze buffer reuse, 13 before the reused chip record
	if n > ceiling {
		t.Errorf("service interval allocates %.1f times, want <= %d", n, ceiling)
	}
}
