package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ppep/internal/arch"
)

func sampleInterval(timeS float64, vf arch.VFState) Interval {
	iv := Interval{
		TimeS: timeS, DurS: 0.2,
		TempK: 320, MeasPowerW: 75, TruePowerW: 74,
	}
	for c := 0; c < 4; c++ {
		var ev arch.EventVec
		ev.Set(arch.RetiredInstructions, float64(1e8*(c+1)))
		ev.Set(arch.CPUClocksNotHalted, float64(2e8*(c+1)))
		iv.Counters = append(iv.Counters, ev)
		iv.PerCoreVF = append(iv.PerCoreVF, vf)
		iv.Busy = append(iv.Busy, c%2 == 0)
	}
	return iv
}

func sampleTrace() *Trace {
	t := &Trace{Run: "433 x2", Suite: "SPE", Platform: "AMD FX-8320"}
	for i := 0; i < 5; i++ {
		t.Intervals = append(t.Intervals, sampleInterval(0.2*float64(i+1), arch.VF5))
	}
	return t
}

// TestFoldMatchesFingerprint pins the incremental fingerprint contract:
// folding a trace's intervals into FingerprintSeed, in order, must
// reproduce Trace.Fingerprint bit-for-bit (the fleet engine keeps one
// running Fold per node instead of retaining traces).
func TestFoldMatchesFingerprint(t *testing.T) {
	tr := sampleTrace()
	h := uint64(FingerprintSeed)
	for i := range tr.Intervals {
		h = tr.Intervals[i].Fold(h)
	}
	if want := tr.Fingerprint(); h != want {
		t.Errorf("incremental Fold = %#x, Trace.Fingerprint = %#x", h, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		h = tr.Intervals[0].Fold(h)
	}); n != 0 {
		t.Errorf("Fold allocates %.1f times per call, want 0", n)
	}
}

func TestIntervalAggregates(t *testing.T) {
	iv := sampleInterval(0.2, arch.VF3)
	if iv.VF() != arch.VF3 {
		t.Errorf("VF = %v", iv.VF())
	}
	iv.PerCoreVF[2] = arch.VF5
	if iv.VF() != arch.VF5 {
		t.Error("VF must be the max per-core state")
	}
	wantInst := 1e8 * (1 + 2 + 3 + 4)
	if iv.Instructions() != wantInst {
		t.Errorf("instructions = %v", iv.Instructions())
	}
	if iv.TotalCounts(arch.CPUClocksNotHalted) != 2*wantInst {
		t.Errorf("cycles = %v", iv.TotalCounts(arch.CPUClocksNotHalted))
	}
	rates := iv.TotalRates()
	if math.Abs(rates.Get(arch.RetiredInstructions)-wantInst/0.2) > 1 {
		t.Errorf("rate = %v", rates.Get(arch.RetiredInstructions))
	}
	cr := iv.CoreRates(1)
	if math.Abs(cr.Get(arch.RetiredInstructions)-2e8/0.2) > 1 {
		t.Errorf("core rate = %v", cr.Get(arch.RetiredInstructions))
	}
}

func TestZeroDurationRates(t *testing.T) {
	iv := sampleInterval(0.2, arch.VF5)
	iv.DurS = 0
	if total := iv.TotalRates(); total.Get(arch.RetiredInstructions) != 0 {
		t.Error("zero-duration rates must be zero")
	}
	if core := iv.CoreRates(0); core.Get(arch.RetiredInstructions) != 0 {
		t.Error("zero-duration core rates must be zero")
	}
}

func TestTraceAggregates(t *testing.T) {
	tr := sampleTrace()
	if math.Abs(tr.DurationS()-1.0) > 1e-12 {
		t.Errorf("duration = %v", tr.DurationS())
	}
	if tr.AvgMeasPowerW() != 75 {
		t.Errorf("avg power = %v", tr.AvgMeasPowerW())
	}
	empty := &Trace{}
	if empty.AvgMeasPowerW() != 0 || empty.DurationS() != 0 {
		t.Error("empty trace aggregates must be zero")
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := sampleTrace()
	bad.Intervals[0].DurS = 0
	if bad.Validate() == nil {
		t.Error("zero duration accepted")
	}
	bad = sampleTrace()
	bad.Intervals[1].Busy = bad.Intervals[1].Busy[:2]
	if bad.Validate() == nil {
		t.Error("ragged slices accepted")
	}
	bad = sampleTrace()
	bad.Intervals[2].MeasPowerW = -1
	if bad.Validate() == nil {
		t.Error("negative power accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Intervals) != len(tr.Intervals) {
		t.Fatalf("interval count %d, want %d", len(got.Intervals), len(tr.Intervals))
	}
	for i := range tr.Intervals {
		a, b := tr.Intervals[i], got.Intervals[i]
		if a.TimeS != b.TimeS || a.DurS != b.DurS || a.TempK != b.TempK ||
			a.MeasPowerW != b.MeasPowerW || a.TruePowerW != b.TruePowerW {
			t.Errorf("interval %d scalar mismatch", i)
		}
		if len(a.Counters) != len(b.Counters) {
			t.Fatalf("interval %d core count mismatch", i)
		}
		for c := range a.Counters {
			if a.Counters[c] != b.Counters[c] {
				t.Errorf("interval %d core %d counters mismatch", i, c)
			}
			if a.PerCoreVF[c] != b.PerCoreVF[c] || a.Busy[c] != b.Busy[c] {
				t.Errorf("interval %d core %d state mismatch", i, c)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Error("wrong column count accepted")
	}
	tr, err := ReadCSV(strings.NewReader(""))
	if err != nil || len(tr.Intervals) != 0 {
		t.Error("empty input should give empty trace")
	}
	// Corrupt a numeric field.
	var buf bytes.Buffer
	if err := sampleTrace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), "320", "xyz", 1)
	if _, err := ReadCSV(strings.NewReader(corrupted)); err == nil {
		t.Error("corrupt numeric accepted")
	}
	// Values WriteCSV never writes, each in one field of one data row
	// (row 1 is the first interval's core 0, row 2 its core 1; col is the
	// column index: 1 dur_s, 2 core, 3 vf, 5 temp_k, 6 meas_w, 7 true_w,
	// 8 e1).
	for _, tc := range []struct {
		name, val string
		row, col  int
	}{
		{"vf 0", "0", 1, 3},
		{"negative vf", "-2", 1, 3},
		{"NaN power", "NaN", 1, 6},
		{"Inf temperature", "+Inf", 1, 5},
		{"Inf event count", "-Inf", 1, 8},
		{"NaN event count", "nan", 1, 8},
		{"negative duration", "-1", 1, 1},
		{"zero duration", "0", 1, 1},
		{"negative power", "-75", 1, 6},
		// Chip fields are parsed on every row, not only an interval's
		// first, and must repeat that row's values.
		{"NaN power on a later row", "NaN", 2, 6},
		{"garbage duration on a later row", "xyz", 2, 1},
		{"Inf true power on a later row", "Inf", 2, 7},
		{"temperature differing within an interval", "321", 2, 5},
		{"power differing within an interval", "76", 2, 6},
		// Cores run 0, 1, ... within each interval.
		{"non-numeric core", "x", 1, 2},
		{"first core not 0", "1", 1, 2},
		{"core skipped", "2", 2, 2},
		{"core repeated", "0", 2, 2},
	} {
		rows := strings.Split(buf.String(), "\n")
		fields := strings.Split(rows[tc.row], ",")
		fields[tc.col] = tc.val
		rows[tc.row] = strings.Join(fields, ",")
		if _, err := ReadCSV(strings.NewReader(strings.Join(rows, "\n"))); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// FuzzReadCSV feeds ReadCSV arbitrary bytes: it must never panic, and
// any trace it accepts must pass Validate and survive a WriteCSV/ReadCSV
// round trip with its fingerprint unchanged.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, out.Bytes())
		}
		if got, want := back.Fingerprint(), tr.Fingerprint(); got != want {
			t.Fatalf("round trip fingerprint %#x, want %#x", got, want)
		}
	})
}

func TestPhaseChangeScore(t *testing.T) {
	mk := func(perInst []float64) Interval {
		var ev arch.EventVec
		inst := 1e9
		ev.Set(arch.RetiredInstructions, inst)
		for i, p := range perInst {
			ev[i] = p * inst
		}
		return Interval{
			DurS: 0.2, Counters: []arch.EventVec{ev},
			PerCoreVF: []arch.VFState{arch.VF5}, Busy: []bool{true},
		}
	}
	steady := &Trace{}
	for i := 0; i < 6; i++ {
		steady.Intervals = append(steady.Intervals, mk([]float64{1.3, 0.4, 0.25, 0.45, 0.02, 0.15, 0.005, 0.01}))
	}
	if got := PhaseChangeScore(steady); got > 1e-12 {
		t.Errorf("steady trace scored %v", got)
	}
	choppy := &Trace{}
	for i := 0; i < 6; i++ {
		rates := []float64{1.3, 0.4, 0.25, 0.45, 0.02, 0.15, 0.005, 0.01}
		if i%2 == 1 {
			rates[7] *= 5 // L2 misses swing 5×
		}
		choppy.Intervals = append(choppy.Intervals, mk(rates))
	}
	if got := PhaseChangeScore(choppy); got < 0.1 {
		t.Errorf("choppy trace scored only %v", got)
	}
	// Idle intervals break the chain without crashing.
	withIdle := &Trace{Intervals: []Interval{
		mk([]float64{1.3, 0, 0, 0, 0, 0, 0, 0}),
		{DurS: 0.2, Counters: []arch.EventVec{{}}, PerCoreVF: []arch.VFState{arch.VF5}, Busy: []bool{false}},
		mk([]float64{1.3, 0, 0, 0, 0, 0, 0, 0}),
	}}
	if got := PhaseChangeScore(withIdle); got != 0 {
		t.Errorf("idle-broken trace scored %v", got)
	}
	if PhaseChangeScore(&Trace{}) != 0 {
		t.Error("empty trace must score zero")
	}
}
