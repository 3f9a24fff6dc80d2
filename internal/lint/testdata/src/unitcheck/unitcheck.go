// Package unitcheck is an analyzer fixture: cross-unit conversions,
// annihilating double casts, and same-unit products, next to the typed
// and one-sided shapes the analyzer must accept. Exported functions take
// and return bare float64 with no want: dimensionless API values are
// not a finding.
package unitcheck

import "fixture/units"

// --- conversion rule: no cross-unit reinterpretation ---

// Reinterpret converts across dimensions directly and through a
// float64 laundering cast; both are findings. Converting a plain
// float64 into a unit type (the measurement boundary) is fine.
func Reinterpret(c units.Celsius, raw float64) units.Kelvin {
	k := units.Kelvin(c)          // want "crosses dimensions"
	k += units.Kelvin(float64(c)) // want "crosses dimensions"
	k += units.Kelvin(raw)        // boundary cast: accepted
	k += c.Kelvin()               // named helper: accepted
	return k
}

// --- arithmetic rule: annihilating casts and same-unit products ---

// Annihilate multiplies two stripped unit values: both dimensions
// vanish in one expression.
func Annihilate(v units.Volts, t units.Kelvin) float64 {
	return float64(v) * float64(t) // want "annihilate both dimensions"
}

// SquareAndRatio changes dimension with same-type products and
// quotients; Go's type system is satisfied, the physics is not.
func SquareAndRatio(w, ref units.Watts) units.Watts {
	sq := w * w // want "silently changes dimension"
	_ = w / ref // want "silently changes dimension"
	return sq
}

// Sanctioned shows the accepted shapes: same-unit sums, constant
// scaling, one-sided casts against plain scalars, and the .Per helper.
func Sanctioned(w, ref units.Watts, scale float64) float64 {
	total := w + ref    // same-dimension sum
	half := total * 0.5 // constant scaling keeps the dimension
	scaled := float64(half) * scale
	return scaled + w.Per(ref)
}

// stale suppression: nothing here for unitcheck to find.
func stale(x float64) float64 {
	return x + 1 //ppep:allow unitcheck nothing suppressed here // want "unused //ppep:allow suppression"
}
