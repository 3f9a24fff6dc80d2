// Package units defines the physical quantity types threaded through
// the PPEP model stack (paper Eqs. 1-8): voltages, temperatures,
// frequencies, powers, energies, durations, and the per-instruction /
// per-event rates the predictor trades in.
//
// Every type is a defined type over float64, so conversions are
// representation-free: wrapping a value in a unit type (or moving it
// between packages) compiles to nothing, keeps the golden fingerprint
// tests bit-identical, and adds no allocations to the tick path. What
// the types buy is that *cross-dimension* mistakes — a volts-for-kelvin
// swap, a MHz/GHz mixup — no longer type-check, and the ppeplint
// `unitcheck` analyzer (docs/UNITS.md) polices the remaining escape
// hatches (float64 casts, cross-unit conversions).
//
// Conversion helpers follow three rules:
//
//   - Single-expression bodies so they always inline (the hotpath
//     analyzer treats them like arithmetic).
//   - The float operation order inside a helper matches the historical
//     expression it replaced, preserving bit-identical results.
//     (Multiplication operand order is free: IEEE 754 multiplication
//     is commutative.)
//   - No String methods. The numeric fmt verbs used by the experiment
//     tables ignore Stringer anyway, and a Stringer would change %v
//     output and break golden files.
//
// Dimensionless ratios (scaling factors, relative errors, fractions)
// deliberately stay plain float64 — the `Per` helpers produce them, and
// genuinely dimensionless model coefficients are plain float64 rather
// than a fake unit.
package units

// KelvinOffset converts between the Kelvin and Celsius scales.
const KelvinOffset = 273.15

// Volts is an electrical potential (core or northbridge supply rail).
type Volts float64

// Kelvin is an absolute temperature (thermal diode, thermal model
// state).
type Kelvin float64

// Celsius is a temperature on the Celsius scale (hwmon exposition,
// Prometheus metrics).
type Celsius float64

// GigaHertz is a clock frequency in GHz (the VF-table granularity).
type GigaHertz float64

// MegaHertz is a clock frequency in MHz (P-state register and metric
// granularity).
type MegaHertz float64

// Watts is a power.
type Watts float64

// Joules is an energy.
type Joules float64

// NanoJoules is a per-event energy cost (powertruth's EventNJ table).
type NanoJoules float64

// Seconds is a duration.
type Seconds float64

// Milliseconds is a duration in ms (sampling and decision intervals).
type Milliseconds float64

// CPI is cycles per instruction (Eq. 1 state).
type CPI float64

// InstPerSec is an instruction throughput (IPS).
type InstPerSec float64

// EventsPerInst is a per-instruction event rate (Eq. 3 activity
// vector entries normalised by instructions).
type EventsPerInst float64

// JoulesPerEvent is an energy cost per countable event — the Eq. 3
// power-model weights Wi are "watts per (event/second)", i.e. joules
// per event.
type JoulesPerEvent float64

// JoulesPerInst is an energy cost per instruction (E/D-space axes).
type JoulesPerInst float64

// SecondsPerInst is a delay per instruction (E/D-space axes).
type SecondsPerInst float64

// EDP is an energy-delay product per instruction squared
// (JoulesPerInst × SecondsPerInst).
type EDP float64

// JouleSeconds is an absolute energy-delay product (Joules × Seconds).
type JouleSeconds float64

// KelvinPerWatt is a thermal resistance.
type KelvinPerWatt float64

// JoulesPerKelvin is a thermal capacitance.
type JoulesPerKelvin float64

// WattsPerKelvin is a temperature sensitivity of power — the slope
// W1(V) of the Eq. 2 idle model.
type WattsPerKelvin float64

// WattsPerGigaHertz is a frequency sensitivity of power (clock-tree
// power per GHz).
type WattsPerGigaHertz float64

// PerKelvin is an inverse temperature (exponential leakage
// sensitivity).
type PerKelvin float64

// PerVolt is an inverse voltage (exponential leakage sensitivity).
type PerVolt float64

// --- Temperature conversions ---

// Celsius converts an absolute temperature to the Celsius scale.
func (k Kelvin) Celsius() Celsius { return Celsius(float64(k) - KelvinOffset) }

// Kelvin converts a Celsius temperature to the absolute scale.
func (c Celsius) Kelvin() Kelvin { return Kelvin(float64(c) + KelvinOffset) }

// --- Frequency conversions ---

// MegaHertz converts GHz to MHz.
func (f GigaHertz) MegaHertz() MegaHertz { return MegaHertz(float64(f) * 1e3) }

// GigaHertz converts MHz to GHz.
func (f MegaHertz) GigaHertz() GigaHertz { return GigaHertz(float64(f) / 1e3) }

// CyclesPerSec returns the raw cycle rate (Hz) as a plain float64 for
// counter-vector arithmetic.
func (f GigaHertz) CyclesPerSec() float64 { return float64(f) * 1e9 }

// Per returns the dimensionless frequency ratio f/ref.
func (f GigaHertz) Per(ref GigaHertz) float64 { return float64(f) / float64(ref) }

// OverCPI converts a clock frequency and a CPI into an instruction
// throughput: f[cycles/s] / cpi[cycles/inst] = inst/s.
func (f GigaHertz) OverCPI(c CPI) InstPerSec {
	return InstPerSec(float64(f) * 1e9 / float64(c))
}

// AggregateCPI returns total cycles over total instructions for n cores
// clocked at f retiring r instructions per second in aggregate:
// n·f[cycles/s] / r[inst/s] = cycles/inst.
func (f GigaHertz) AggregateCPI(n int, r InstPerSec) CPI {
	return CPI(float64(n) * float64(f) * 1e9 / float64(r))
}

// --- Duration conversions ---

// Milliseconds converts seconds to ms.
func (s Seconds) Milliseconds() Milliseconds { return Milliseconds(float64(s) * 1e3) }

// Seconds converts ms to seconds.
func (ms Milliseconds) Seconds() Seconds { return Seconds(float64(ms) / 1e3) }

// Per returns the dimensionless duration ratio s/ref.
func (s Seconds) Per(ref Seconds) float64 { return float64(s) / float64(ref) }

// --- Electrical conversions ---

// Per returns the dimensionless voltage ratio v/ref (the base of
// Eq. 3's (V/V5)^alpha scaling).
func (v Volts) Per(ref Volts) float64 { return float64(v) / float64(ref) }

// V2F returns the CV²f dynamic-power scaling factor V²·f (volt²·GHz),
// evaluated as (V × V) × f. The capacitance coefficient it multiplies
// stays a plain float64 (the Green Governors baseline folds the
// cycles-per-GHz factor into it).
func (v Volts) V2F(f GigaHertz) float64 { return float64(v) * float64(v) * float64(f) }

// Times resolves an exponential voltage sensitivity against a voltage
// delta into the dimensionless exponent.
func (p PerVolt) Times(v Volts) float64 { return float64(p) * float64(v) }

// Times resolves an exponential temperature sensitivity against a
// temperature delta into the dimensionless exponent.
func (p PerKelvin) Times(k Kelvin) float64 { return float64(p) * float64(k) }

// --- Power / energy conversions ---

// Over integrates a power over a duration: W × s = J.
func (w Watts) Over(d Seconds) Joules { return Joules(float64(w) * float64(d)) }

// OverMS integrates a power over a millisecond duration: W × ms/1e3 = J.
func (w Watts) OverMS(d Milliseconds) Joules {
	return Joules(float64(w) * (float64(d) / 1e3))
}

// Per returns the dimensionless power ratio w/ref.
func (w Watts) Per(ref Watts) float64 { return float64(w) / float64(ref) }

// PerRate divides a power by an instruction throughput:
// (J/s) / (inst/s) = J/inst — the E/D-space energy axis.
func (w Watts) PerRate(r InstPerSec) JoulesPerInst {
	return JoulesPerInst(float64(w) / float64(r))
}

// Per returns the dimensionless energy ratio j/ref.
func (j Joules) Per(ref Joules) float64 { return float64(j) / float64(ref) }

// OverTime divides an energy by a duration back into a power.
func (j Joules) OverTime(d Seconds) Watts { return Watts(float64(j) / float64(d)) }

// Times forms an absolute energy-delay product: J × s.
func (j Joules) Times(d Seconds) JouleSeconds { return JouleSeconds(float64(j) * float64(d)) }

// Joules converts a per-event nano-joule cost to joules.
func (nj NanoJoules) Joules() Joules { return Joules(float64(nj) * 1e-9) }

// --- Thermal conversions ---

// Times resolves a thermal resistance against a power into the
// steady-state temperature rise: K/W × W = K.
func (r KelvinPerWatt) Times(w Watts) Kelvin { return Kelvin(float64(r) * float64(w)) }

// TimesHeatCap forms the RC thermal time constant: K/W × J/K = s.
func (r KelvinPerWatt) TimesHeatCap(c JoulesPerKelvin) Seconds {
	return Seconds(float64(r) * float64(c))
}

// Times resolves the Eq. 2 slope against a temperature: W/K × K = W.
func (s WattsPerKelvin) Times(k Kelvin) Watts { return Watts(float64(s) * float64(k)) }

// Times resolves a clock-tree sensitivity against a frequency:
// W/GHz × GHz = W.
func (s WattsPerGigaHertz) Times(f GigaHertz) Watts { return Watts(float64(s) * float64(f)) }

// --- Performance conversions ---

// ScaleFreq rescales a memory-bound CPI component from one clock to
// another (Eq. 1: MCPI grows linearly with frequency):
// cpi × to/from, evaluated as (cpi × to) / from to match the
// historical operation order.
func (c CPI) ScaleFreq(to, from GigaHertz) CPI {
	return CPI(float64(c) * float64(to) / float64(from))
}

// Per returns the dimensionless CPI ratio c/ref.
func (c CPI) Per(ref CPI) float64 { return float64(c) / float64(ref) }

// Per returns the dimensionless throughput ratio r/ref (speedup).
func (r InstPerSec) Per(ref InstPerSec) float64 { return float64(r) / float64(ref) }

// Invert turns a throughput into a per-instruction delay.
func (r InstPerSec) Invert() SecondsPerInst { return SecondsPerInst(1 / float64(r)) }

// TimesDelay forms the per-instruction-squared energy-delay product:
// J/inst × s/inst.
func (e JoulesPerInst) TimesDelay(d SecondsPerInst) EDP {
	return EDP(float64(e) * float64(d))
}

// Per returns the dimensionless energy-per-instruction ratio e/ref.
func (e JoulesPerInst) Per(ref JoulesPerInst) float64 { return float64(e) / float64(ref) }

// Per returns the dimensionless delay ratio d/ref (the speedup of ref
// over d when d is the faster point).
func (d SecondsPerInst) Per(ref SecondsPerInst) float64 { return float64(d) / float64(ref) }

// --- Prometheus exposition ---

// Suffix returns the canonical Prometheus metric-name suffix for a
// typed quantity, or "" for plain (dimensionless) float64 values.
// internal/serve derives every gauge name through this function, so a
// metric name can never disagree with the unit of the value it exports.
func Suffix(q any) string {
	switch q.(type) {
	case Watts:
		return "_watts"
	case Joules:
		return "_joules"
	case Celsius:
		return "_celsius"
	case Kelvin:
		return "_kelvin"
	case MegaHertz:
		return "_mhz"
	case GigaHertz:
		return "_ghz"
	case Volts:
		return "_volts"
	case Seconds:
		return "_seconds"
	case InstPerSec:
		return "_ips"
	case JoulesPerInst:
		return "_joules_per_inst"
	}
	return ""
}
