package eventpred

import (
	"math"
	"testing"
	"testing/quick"

	"ppep/internal/arch"
	"ppep/internal/units"
)

// mkRates builds a consistent event-rate vector for a synthetic workload
// at frequency f: ccpi core cycles/inst, memNS leading-load ns/inst.
func mkRates(f, ccpi, memNS, dsCore float64) arch.EventVec {
	mcpi := memNS * f
	cpi := ccpi + mcpi
	instRate := f * 1e9 / cpi
	var ev arch.EventVec
	perInst := []float64{1.3, 0.4, 0.25, 0.45, 0.02, 0.15, 0.005, 0.008}
	for i, p := range perInst {
		ev[i] = p * instRate
	}
	ev.Set(arch.DispatchStalls, (mcpi+dsCore)*instRate)
	ev.Set(arch.CPUClocksNotHalted, cpi*instRate)
	ev.Set(arch.RetiredInstructions, instRate)
	ev.Set(arch.MABWaitCycles, mcpi*instRate)
	return ev
}

func TestPredictIdentity(t *testing.T) {
	ev := mkRates(3.5, 0.7, 0.1, 0.2)
	var got arch.EventVec
	if !PredictRates(&ev, 3.5, 3.5, &got) {
		t.Fatal("rejected valid rates")
	}
	for i := range ev {
		if math.Abs(got[i]-ev[i])/math.Max(ev[i], 1) > 1e-9 {
			t.Errorf("event %d: %v vs %v", i+1, got[i], ev[i])
		}
	}
}

func TestPredictMatchesGroundTruth(t *testing.T) {
	// The same synthetic workload evaluated directly at the target
	// frequency must equal the prediction from the source frequency.
	for _, pair := range [][2]float64{{3.5, 1.4}, {1.4, 3.5}, {2.9, 1.7}, {1.7, 2.3}} {
		from, to := pair[0], pair[1]
		src := mkRates(from, 0.7, 0.1, 0.2)
		want := mkRates(to, 0.7, 0.1, 0.2)
		var got arch.EventVec
		if !PredictRates(&src, units.GigaHertz(from), units.GigaHertz(to), &got) {
			t.Fatalf("%v→%v rejected", from, to)
		}
		for i := range want {
			rel := math.Abs(got[i]-want[i]) / math.Max(want[i], 1)
			if rel > 1e-9 {
				t.Errorf("%v→%v event %d: %v vs %v", from, to, i+1, got[i], want[i])
			}
		}
	}
}

func TestPredictIdleCore(t *testing.T) {
	if PredictRates(&arch.EventVec{}, 3.5, 1.4, &arch.EventVec{}) {
		t.Error("idle core accepted")
	}
	ev := mkRates(3.5, 0.7, 0.1, 0.2)
	if PredictRates(&ev, 0, 1.4, &arch.EventVec{}) {
		t.Error("zero source frequency accepted")
	}
	if PredictRates(&ev, 3.5, 0, &arch.EventVec{}) {
		t.Error("zero target frequency accepted")
	}
}

func TestMemoryBoundRatesDropLessAtLowFreq(t *testing.T) {
	// Scaling a memory-bound workload down in frequency loses little
	// throughput; a CPU-bound one scales almost linearly. The event
	// predictor must reproduce that.
	cpu := mkRates(3.5, 0.9, 0.005, 0.2)
	mem := mkRates(3.5, 0.5, 0.35, 0.1)
	var cpuTo arch.EventVec
	PredictRates(&cpu, 3.5, 1.4, &cpuTo)
	var memTo arch.EventVec
	PredictRates(&mem, 3.5, 1.4, &memTo)
	cpuRatio := cpuTo.Get(arch.RetiredInstructions) / cpu.Get(arch.RetiredInstructions)
	memRatio := memTo.Get(arch.RetiredInstructions) / mem.Get(arch.RetiredInstructions)
	if memRatio <= cpuRatio {
		t.Errorf("mem-bound IPS ratio %v should beat cpu-bound %v", memRatio, cpuRatio)
	}
	if cpuRatio < 0.38 || cpuRatio > 0.45 {
		t.Errorf("cpu-bound ratio %v, want ≈1.4/3.5", cpuRatio)
	}
}

func TestGapInvariantAcrossPredictions(t *testing.T) {
	ev := mkRates(3.5, 0.7, 0.1, 0.2)
	g0, ok := Gap(ev)
	if !ok {
		t.Fatal("gap rejected")
	}
	for _, f := range []float64{1.4, 1.7, 2.3, 2.9} {
		var pred arch.EventVec
		PredictRates(&ev, 3.5, units.GigaHertz(f), &pred)
		g, ok := Gap(pred)
		if !ok {
			t.Fatalf("gap at %v rejected", f)
		}
		if math.Abs(float64(g-g0)) > 1e-9 {
			t.Errorf("gap at %v GHz: %v, want invariant %v", f, g, g0)
		}
	}
}

func TestGapIdle(t *testing.T) {
	if _, ok := Gap(arch.EventVec{}); ok {
		t.Error("idle gap accepted")
	}
}

func TestPerInstructionFingerprint(t *testing.T) {
	ev := mkRates(2.9, 0.7, 0.1, 0.2)
	fp, ok := PerInstruction(ev)
	if !ok {
		t.Fatal("rejected")
	}
	want := []float64{1.3, 0.4, 0.25, 0.45, 0.02, 0.15, 0.005, 0.008}
	for i := range fp {
		if math.Abs(float64(fp[i])-want[i]) > 1e-12 {
			t.Errorf("fingerprint[%d] = %v, want %v", i, fp[i], want[i])
		}
	}
	if _, ok := PerInstruction(arch.EventVec{}); ok {
		t.Error("idle fingerprint accepted")
	}
}

func TestPredictRoundTripProperty(t *testing.T) {
	// Predicting f→f'→f must return the original rates.
	f := func(ccpiRaw, memRaw uint8, fi, fj uint8) bool {
		ccpi := 0.3 + float64(ccpiRaw)/255*1.2
		memNS := float64(memRaw) / 255 * 0.4
		freqs := []float64{1.4, 1.7, 2.3, 2.9, 3.5}
		from := freqs[int(fi)%len(freqs)]
		to := freqs[int(fj)%len(freqs)]
		ev := mkRates(from, ccpi, memNS, 0.15)
		var fwd arch.EventVec
		if !PredictRates(&ev, units.GigaHertz(from), units.GigaHertz(to), &fwd) {
			return false
		}
		var back arch.EventVec
		if !PredictRates(&fwd, units.GigaHertz(to), units.GigaHertz(from), &back) {
			return false
		}
		for i := range ev {
			if math.Abs(back[i]-ev[i]) > 1e-6*math.Max(ev[i], 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDispatchStallsClampedNonNegative(t *testing.T) {
	// A pathological vector where the gap exceeds the predicted CPI must
	// not produce negative stall rates.
	var ev arch.EventVec
	ev.Set(arch.RetiredInstructions, 1e9)
	ev.Set(arch.CPUClocksNotHalted, 2e9) // CPI 2
	ev.Set(arch.MABWaitCycles, 1.9e9)    // almost all memory
	ev.Set(arch.DispatchStalls, 0)       // gap = 2.0
	var pred arch.EventVec
	if !PredictRates(&ev, 3.5, 1.4, &pred) {
		t.Fatal("rejected")
	}
	if pred.Get(arch.DispatchStalls) < 0 {
		t.Error("negative dispatch stalls predicted")
	}
}
