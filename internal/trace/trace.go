// Package trace defines the measurement records the simulated platform
// produces and the PPEP models consume: one Interval per 200 ms DVFS
// decision period, carrying extrapolated per-core event counts, the
// averaged 20 ms power-sensor readings, the thermal diode value, and the
// VF state — exactly the information available on the paper's testbed.
//
// Intervals also carry oracle fields (true power, true core/NB split)
// that the models never read; experiments use them to quantify errors.
package trace

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/fingerprint"
)

// Interval is one DVFS decision period's worth of measurements.
type Interval struct {
	// TimeS is the simulation time at the end of the interval.
	TimeS float64
	// DurS is the interval length in seconds (0.2 in all experiments).
	DurS float64
	// PerCoreVF is each core's VF state during the interval.
	PerCoreVF []arch.VFState
	// Counters holds each core's extrapolated event counts for the
	// interval (counts, not rates).
	Counters []arch.EventVec
	// Busy reports whether a thread was bound and running on each core.
	Busy []bool
	// TempK is the socket thermal diode reading.
	TempK float64
	// MeasPowerW is the mean of the interval's ten 20 ms sensor readings.
	MeasPowerW float64

	// Oracle fields (never visible to the models).
	TruePowerW   float64   // true mean chip power
	TrueCoreW    float64   // true core-side power (cores + CU leakage + housekeeping)
	TrueNBW      float64   // true NB-side power (NB dynamic + leakage + base)
	TrueCoreDynW []float64 // per-core true dynamic power
}

// VF returns the interval's chip-wide VF state, defined as the highest
// per-core state (cores share a voltage rail on the real part).
func (iv *Interval) VF() arch.VFState {
	top := arch.VFState(1)
	for _, s := range iv.PerCoreVF {
		if s > top {
			top = s
		}
	}
	return top
}

// TotalCounts sums one event across all cores.
func (iv *Interval) TotalCounts(id arch.EventID) float64 {
	var sum float64
	for _, c := range iv.Counters {
		sum += c.Get(id)
	}
	return sum
}

// TotalRates returns the per-second chip-wide rates for all events.
// A zero-duration interval has no meaningful rates and returns zeros.
func (iv *Interval) TotalRates() arch.EventVec {
	if iv.DurS <= 0 {
		return arch.EventVec{}
	}
	var sum arch.EventVec
	for _, c := range iv.Counters {
		sum.Add(c)
	}
	return sum.Scale(1 / iv.DurS)
}

// CoreRates returns one core's per-second event rates.
func (iv *Interval) CoreRates(core int) (rates arch.EventVec) {
	iv.CoreRatesInto(core, &rates)
	return rates
}

// CoreRatesInto writes one core's per-second event rates into a
// caller-owned vector, so a caller looping over cores copies no vectors.
func (iv *Interval) CoreRatesInto(core int, rates *arch.EventVec) {
	if iv.DurS <= 0 {
		*rates = arch.EventVec{}
		return
	}
	// Scale's arithmetic, without copying the counts into its receiver.
	k := 1 / iv.DurS
	for i, n := range &iv.Counters[core] {
		rates[i] = n * k
	}
}

// Instructions returns the chip-wide retired instructions in the interval.
func (iv *Interval) Instructions() float64 {
	return iv.TotalCounts(arch.RetiredInstructions)
}

// Trace is the full measurement record of one benchmark run.
type Trace struct {
	Run       string // benchmark combination name ("433 x2", "400+401")
	Suite     string // "SPE", "PAR", "NPB", ...
	Platform  string
	Intervals []Interval
}

// DurationS returns the run's wall-clock length.
func (t *Trace) DurationS() float64 {
	var d float64
	for _, iv := range t.Intervals {
		d += iv.DurS
	}
	return d
}

// AvgMeasPowerW returns the run's mean measured power.
func (t *Trace) AvgMeasPowerW() float64 {
	if len(t.Intervals) == 0 {
		return 0
	}
	var sum float64
	for _, iv := range t.Intervals {
		sum += iv.MeasPowerW
	}
	return sum / float64(len(t.Intervals))
}

// Fingerprint returns an order-sensitive FNV-1a hash over every field of
// every interval at full float64 bit precision. Two traces fingerprint
// equal iff they are bit-identical, so the simulator's golden-equivalence
// tests use it to pin down the determinism guarantee: a fixed-seed run
// must reproduce the same fingerprint across refactors of the tick loop.
func (t *Trace) Fingerprint() uint64 {
	h := FingerprintSeed
	for i := range t.Intervals {
		h = t.Intervals[i].Fold(h)
	}
	return h
}

// FingerprintSeed is the initial value of an incremental interval
// fingerprint: folding a trace's intervals into it with Fold, in order,
// reproduces Trace.Fingerprint exactly. Consumers that never retain
// whole traces (the fleet engine keeps one running hash per node) start
// from this seed and fold each interval as it closes.
const FingerprintSeed = fingerprint.Offset

// Fold folds the interval into a running order-sensitive FNV-1a
// fingerprint (see FingerprintSeed). It is allocation-free.
func (iv *Interval) Fold(seed uint64) uint64 {
	h := fingerprint.Hash(seed).F64(iv.TimeS).F64(iv.DurS).F64(iv.TempK).
		F64(iv.MeasPowerW).F64(iv.TruePowerW).F64(iv.TrueCoreW).F64(iv.TrueNBW)
	for _, s := range iv.PerCoreVF {
		h = h.U64(uint64(s))
	}
	for _, b := range iv.Busy {
		x := uint64(0)
		if b {
			x = 1
		}
		h = h.U64(x)
	}
	for _, ev := range iv.Counters {
		for _, x := range ev {
			h = h.F64(x)
		}
	}
	for _, w := range iv.TrueCoreDynW {
		h = h.F64(w)
	}
	return h.Sum()
}

// Validate checks structural consistency.
func (t *Trace) Validate() error {
	for i, iv := range t.Intervals {
		if iv.DurS <= 0 {
			return fmt.Errorf("trace %s: interval %d non-positive duration", t.Run, i)
		}
		if len(iv.Counters) != len(iv.PerCoreVF) || len(iv.Counters) != len(iv.Busy) {
			return fmt.Errorf("trace %s: interval %d ragged per-core slices", t.Run, i)
		}
		if iv.MeasPowerW < 0 || iv.TempK < 0 {
			return fmt.Errorf("trace %s: interval %d negative measurement", t.Run, i)
		}
	}
	return nil
}
