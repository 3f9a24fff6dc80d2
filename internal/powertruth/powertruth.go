// Package powertruth is the simulated chip's physical power model — the
// hidden ground truth that PPEP's estimators must learn from measurements.
//
// It is deliberately richer than PPEP's nine-event linear model (Eq. 3):
//
//   - switching energy scales as V²·(1+κ·(V−Vref)), not a clean (V/V5)^α;
//   - clock-tree/pipeline-clocking power is proportional to unhalted
//     cycles, which is not one of PPEP's nine inputs;
//   - prefetch and TLB-walk activity burn power but are invisible to any
//     counter;
//   - leakage is exponential in both voltage and temperature, while
//     PPEP's idle model is linear in T with polynomial-in-V coefficients;
//   - the NB's DRAM energy depends on the L3 miss ratio, which no
//     per-core event separates from L3 hits.
//
// The gap between this truth and PPEP's model structure is what produces
// honest, non-zero validation errors, as on real silicon.
package powertruth

import (
	"math"

	"ppep/internal/arch"
	"ppep/internal/units"
)

// Activity is one core's true activity during a time slice, in events per
// second (not per instruction).
type Activity struct {
	Events     arch.EventVec // true per-second rates for E1..E12
	PrefetchPS float64       // EventVec-denominated per-second rate, kept raw like the vector it extends
	TLBWalkPS  float64       // unobservable: table walks per second
	// EPIScale is a hidden per-phase energy-per-event modulation (≈1):
	// real programs exercise different functional-unit mixes that no
	// nine-event model can separate. Zero means 1.
	EPIScale float64
	Halted   bool // core idle (no workload bound)
}

// NBActivity is the shared north bridge's true activity per second.
type NBActivity struct {
	L3AccessPS float64 // EventVec-denominated per-second rates, kept raw like the vector they extend
	DRAMPS     float64 // DRAM accesses per second
}

// Config holds the physical constants of the simulated chip. All switching
// energies are in nanojoules at VRef; leakage parameters are referenced to
// (VRef, T0K).
type Config struct {
	VRef units.Volts // core voltage reference (VF5 voltage)

	// Per-event switching energy for the observable core events
	// E1..E8 (E9, dispatch stalls, burns only clock power).
	EventNJ [8]units.NanoJoules
	// StallNJ is the energy per dispatch-stall cycle (clock+idle pipeline).
	StallNJ units.NanoJoules
	// PrefetchNJ and TLBWalkNJ are the unobservable activities' energies.
	PrefetchNJ, TLBWalkNJ units.NanoJoules
	// ClockWPerGHz is active clock-tree power per core per GHz at VRef.
	ClockWPerGHz units.WattsPerGigaHertz
	// HaltedClockFrac is the fraction of clock power that survives clock
	// gating when a core is halted.
	HaltedClockFrac float64
	// ShortCircuitK is κ in the V²·(1+κ(V−VRef)) switching-energy scale.
	ShortCircuitK units.PerVolt

	// Leakage.
	CULeakW   units.Watts     // per-CU leakage at (VRef, T0K)
	NBLeakW   units.Watts     // NB leakage at (NBVRef, T0K)
	BaseW     units.Watts     // un-gateable base power (I/O, PLLs); VF-independent
	LeakVExp  units.PerVolt   // exponential slope of leakage vs core voltage
	LeakTExp  units.PerKelvin // exponential slope of leakage vs temperature
	T0K       units.Kelvin
	GateResid float64 // dimensionless leakage fraction surviving power gating

	// NB dynamic.
	NBVRef         units.Volts
	L3AccessNJ     units.NanoJoules
	DRAMAccessNJ   units.NanoJoules
	NBClockWPerGHz units.WattsPerGigaHertz

	// HousekeepingW is the OS background dynamic power at (VRef, top
	// frequency); it scales with V²f and exists whenever the chip is not
	// fully gated. It is invisible to the benchmark's counters — exactly
	// the "active idle dynamic power" the paper folds into idle power.
	HousekeepingW units.Watts
}

// DefaultFX8320 returns the physical constants tuned for the FX-8320
// platform: ≈105 W chip power under full FP load at VF5, ≈33 W active
// idle at VF5, ≈11 W active idle at VF1 — in line with the paper's traces.
func DefaultFX8320() *Config {
	return &Config{
		VRef: 1.320,
		// One fully-loaded Piledriver core draws 15–20 W at VF5 — the
		// Figure 7 trace shows ≈100 W with four busy cores. The energies
		// below reproduce that (≈4 nJ per instruction at a typical mix).
		EventNJ: [8]units.NanoJoules{
			1.30, // E1 retired uop: scheduler+ALU+retire
			2.60, // E2 FPU pipe op
			0.90, // E3 icache fetch
			1.45, // E4 dcache access
			6.00, // E5 L2 request
			0.30, // E6 branch
			16.5, // E7 mispredict flush
			8.30, // E8 L2 miss (core-side NB interface)
		},
		StallNJ:         0.19,
		PrefetchNJ:      9.0,
		TLBWalkNJ:       12.0,
		ClockWPerGHz:    1.50,
		HaltedClockFrac: 0.12,
		ShortCircuitK:   0.40,

		CULeakW:   6.0,
		NBLeakW:   3.2,
		BaseW:     1.2,
		LeakVExp:  3.3,
		LeakTExp:  0.011,
		T0K:       330,
		GateResid: 0.04,

		NBVRef:         1.175,
		L3AccessNJ:     10.0,
		DRAMAccessNJ:   90.0,
		NBClockWPerGHz: 1.3,

		HousekeepingW: 0.9,
	}
}

// DefaultPhenomII returns constants for the secondary platform (45 nm,
// higher leakage slope, no power gating, smaller L3).
func DefaultPhenomII() *Config {
	c := DefaultFX8320()
	c.VRef = 1.350
	c.CULeakW = 4.0 // per core (Phenom "CUs" are single cores)
	c.NBLeakW = 3.6
	c.LeakVExp = 3.0
	c.LeakTExp = 0.010
	c.ClockWPerGHz = 1.10
	c.NBVRef = 1.200
	return c
}

// switchScale is the voltage scaling of switching energy.
func (c *Config) switchScale(v units.Volts) float64 {
	r := v.Per(c.VRef)
	return r * r * (1 + c.ShortCircuitK.Times(v-c.VRef))
}

// CoreDynCoeffs are the operating-point factors of the core dynamic power
// model. They depend only on (V, f), so the simulator caches them across
// ticks while a CU's operating point holds.
type CoreDynCoeffs struct {
	Scale  float64     // dimensionless switching-energy voltage scale
	ClockW units.Watts // clock-tree power at (V, f)
}

// CoreDynCoeffsAt precomputes the coefficients for one operating point.
func (c *Config) CoreDynCoeffsAt(v units.Volts, fGHz units.GigaHertz) CoreDynCoeffs {
	return CoreDynCoeffs{
		Scale:  c.switchScale(v),
		ClockW: units.Watts(float64(c.ClockWPerGHz.Times(fGHz)) * v.Per(c.VRef) * v.Per(c.VRef)),
	}
}

// CoreDynamicWWith is CoreDynamicW with the operating-point terms hoisted.
// A halted activity reads only its Halted flag, so the tick loop reuses
// one Activity across cores without clearing it.
//
//ppep:hotpath
func (c *Config) CoreDynamicWWith(k CoreDynCoeffs, a *Activity) units.Watts {
	if a.Halted {
		return units.Watts(float64(k.ClockW) * c.HaltedClockFrac)
	}
	var nj float64
	for i := 0; i < 8; i++ {
		nj += float64(c.EventNJ[i]) * a.Events[i]
	}
	// Indexed, not Get: Get's by-value receiver copies the whole vector.
	nj += float64(c.StallNJ) * a.Events[int(arch.DispatchStalls)-1]
	nj += float64(c.PrefetchNJ) * a.PrefetchPS
	nj += float64(c.TLBWalkNJ) * a.TLBWalkPS
	epi := a.EPIScale
	if epi == 0 {
		epi = 1
	}
	// nJ/s = nW; convert to W.
	return units.Watts(nj*1e-9*k.Scale*epi) + k.ClockW
}

// CoreDynamicW returns one core's true dynamic power at voltage v and
// frequency fGHz given its activity.
func (c *Config) CoreDynamicW(a *Activity, v units.Volts, fGHz units.GigaHertz) units.Watts {
	return c.CoreDynamicWWith(c.CoreDynCoeffsAt(v, fGHz), a)
}

// NBDynCoeffs are the NB-operating-point factors of NBDynamicW, cacheable
// while the NB point holds (it changes only via SetNBPoint).
type NBDynCoeffs struct {
	Scale  float64 // dimensionless switching-energy voltage scale
	ClockW units.Watts
}

// NBDynCoeffsAt precomputes the NB coefficients for one operating point.
func (c *Config) NBDynCoeffsAt(nbV units.Volts, nbF units.GigaHertz) NBDynCoeffs {
	r := nbV.Per(c.NBVRef)
	scale := r * r
	return NBDynCoeffs{Scale: scale, ClockW: units.Watts(float64(c.NBClockWPerGHz.Times(nbF)) * scale)}
}

// NBDynamicWWith is NBDynamicW with the operating-point terms hoisted.
//
//ppep:hotpath
func (c *Config) NBDynamicWWith(k NBDynCoeffs, nb NBActivity) units.Watts {
	nj := float64(c.L3AccessNJ)*nb.L3AccessPS + float64(c.DRAMAccessNJ)*nb.DRAMPS
	return units.Watts(nj*1e-9*k.Scale) + k.ClockW
}

// NBDynamicW returns the NB's true dynamic power at NB voltage nbV and
// frequency nbF.
func (c *Config) NBDynamicW(nb NBActivity, nbV units.Volts, nbF units.GigaHertz) units.Watts {
	return c.NBDynamicWWith(c.NBDynCoeffsAt(nbV, nbF), nb)
}

// LeakTempScale returns the temperature factor of the leakage model. The
// CU and NB terms share the same T exponent, so the simulator computes it
// once per tick for all five leakage evaluations.
//
//ppep:hotpath
//ppep:inline
func (c *Config) LeakTempScale(tK units.Kelvin) float64 {
	return math.Exp(c.LeakTExp.Times(tK - c.T0K))
}

// CULeakVoltScale returns the core-rail voltage factor of CU leakage,
// constant while the rail voltage holds.
//
//ppep:hotpath
func (c *Config) CULeakVoltScale(v units.Volts) float64 {
	return math.Exp(c.LeakVExp.Times(v - c.VRef))
}

// NBLeakVoltScale returns the NB-rail voltage factor of NB leakage.
//
//ppep:hotpath
func (c *Config) NBLeakVoltScale(nbV units.Volts) float64 {
	return math.Exp(c.LeakVExp.Times(nbV - c.NBVRef))
}

// CULeakageWWith assembles CU leakage from precomputed factors.
//
//ppep:hotpath
//ppep:inline
func (c *Config) CULeakageWWith(voltScale, tempScale float64, gated bool) units.Watts {
	w := units.Watts(float64(c.CULeakW) * voltScale * tempScale)
	if gated {
		w = units.Watts(float64(w) * c.GateResid)
	}
	return w
}

// NBLeakageWWith assembles NB leakage from precomputed factors.
//
//ppep:hotpath
//ppep:inline
func (c *Config) NBLeakageWWith(voltScale, tempScale float64, gated bool) units.Watts {
	w := units.Watts(float64(c.NBLeakW) * voltScale * tempScale)
	if gated {
		w = units.Watts(float64(w) * c.GateResid)
	}
	return w
}

// CULeakageW returns one compute unit's leakage at core voltage v and
// temperature tK. Gated CUs retain GateResid of their leakage.
func (c *Config) CULeakageW(v units.Volts, tK units.Kelvin, gated bool) units.Watts {
	return c.CULeakageWWith(c.CULeakVoltScale(v), c.LeakTempScale(tK), gated)
}

// NBLeakageW returns the NB's leakage at its voltage and temperature.
func (c *Config) NBLeakageW(nbV units.Volts, tK units.Kelvin, gated bool) units.Watts {
	return c.NBLeakageWWith(c.NBLeakVoltScale(nbV), c.LeakTempScale(tK), gated)
}

// HousekeepingDynW returns the OS background power at core voltage v and
// frequency fGHz (relative to the chip's top frequency fTop).
//
//ppep:hotpath
func (c *Config) HousekeepingDynW(v units.Volts, fGHz, fTop units.GigaHertz) units.Watts {
	r := v.Per(c.VRef)
	return units.Watts(float64(c.HousekeepingW) * r * r * fGHz.Per(fTop))
}

// Breakdown is the per-component decomposition of one tick's chip power.
type Breakdown struct {
	CoreDynW []units.Watts // per core
	CULeakW  []units.Watts // per CU
	NBDynW   units.Watts
	NBLeakW  units.Watts
	BaseW    units.Watts
	HousekW  units.Watts
}

// TotalW sums the breakdown. The summation order (NB terms, then per-core
// dynamic, then per-CU leakage) is load-bearing: fxsim's golden trace
// fingerprints pin the floating-point totals it produces bit for bit.
//
//ppep:hotpath
//ppep:inline
func (b *Breakdown) TotalW() units.Watts {
	t := b.NBDynW + b.NBLeakW + b.BaseW + b.HousekW
	for _, w := range b.CoreDynW {
		t += w
	}
	for _, w := range b.CULeakW {
		t += w
	}
	return t
}

// CoreTotalW returns the "core side" share: core dynamic + CU leakage +
// housekeeping. Used by the Figure 10/11 core-vs-NB energy split.
//
//ppep:inline
func (b *Breakdown) CoreTotalW() units.Watts {
	t := b.HousekW
	for _, w := range b.CoreDynW {
		t += w
	}
	for _, w := range b.CULeakW {
		t += w
	}
	return t
}

// NBTotalW returns the NB share: NB dynamic + NB leakage + base.
//
//ppep:inline
func (b *Breakdown) NBTotalW() units.Watts { return b.NBDynW + b.NBLeakW + b.BaseW }
