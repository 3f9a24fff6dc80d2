// Package dynpower implements the paper's chip dynamic power model
// (Section IV-B, Equation 3): a linear regression over nine hardware
// events (Table I, E1–E9), trained once at VF5 and scaled to other VF
// states by voltage:
//
//	P_dyn = Σ_cores ( Σ_{i=1..7} (V/V5)^α · W_i · E_i  +  Σ_{i=8,9} W_i · E_i )
//
// E1–E7 are core-private activity scaled by the voltage factor; E8 (L2
// Cache Misses) and E9 (Dispatch Stalls) proxy the core's share of north
// bridge activity, whose voltage rail is fixed, so their weights are not
// scaled. The exponent α is a process constant calibrated from measured
// power across voltages.
package dynpower

import (
	"fmt"
	"math"

	"ppep/internal/arch"
	"ppep/internal/stats"
	"ppep/internal/units"
)

// NumScaled is the number of leading events whose weights scale with core
// voltage (E1–E7).
const NumScaled = 7

// Model is the trained dynamic power model.
type Model struct {
	// W holds the Equation 3 weights for E1–E9: watts per
	// (event/second), i.e. joules per event.
	W [arch.NumPowerEvents]units.JoulesPerEvent
	// Alpha is the voltage-scaling exponent.
	Alpha float64
	// VRef is the training voltage (V5).
	VRef units.Volts
}

// scale returns the (V/V5)^α factor.
func (m *Model) scale(v units.Volts) float64 {
	if v == m.VRef {
		return 1
	}
	return math.Pow(v.Per(m.VRef), m.Alpha)
}

// EstimateRates returns the dynamic power for chip-wide summed event
// rates (events/second) with all cores at voltage v.
func (m *Model) EstimateRates(rates [arch.NumPowerEvents]float64, v units.Volts) units.Watts {
	s := m.scale(v)
	var w float64
	for i := 0; i < NumScaled; i++ {
		w += s * float64(m.W[i]) * rates[i]
	}
	for i := NumScaled; i < arch.NumPowerEvents; i++ {
		w += float64(m.W[i]) * rates[i]
	}
	return units.Watts(w)
}

// EstimateCore returns one core's attributed dynamic power from its event
// rates at its voltage. Equation 3 uses the same weights for every core,
// so the chip estimate is the sum of per-core estimates.
func (m *Model) EstimateCore(ev *arch.EventVec, v units.Volts) units.Watts {
	return m.EstimateRates(ev.PowerEvents(), v)
}

// Sample is one training observation: chip-wide summed event rates, the
// rail voltage, and the measured dynamic power (measured chip power minus
// the idle model's estimate).
type Sample struct {
	Rates   [arch.NumPowerEvents]float64 // EventVec-denominated per-second rates stay raw float64
	Voltage units.Volts
	DynW    units.Watts
}

// Train fits the weights by least squares on samples taken at the
// reference voltage vRef (the paper trains at VF5 only), then calibrates
// α on the full multi-voltage sample set by golden-section search.
// Weights are constrained non-negative: a hardware event cannot remove
// power, and the constraint keeps noisy regressions physical.
func Train(samples []Sample, vRef units.Volts) (*Model, error) {
	var feats [][]float64
	var targets []float64
	for _, s := range samples {
		if s.Voltage != vRef {
			continue
		}
		feats = append(feats, append([]float64(nil), s.Rates[:]...))
		targets = append(targets, float64(s.DynW))
	}
	if len(feats) < arch.NumPowerEvents {
		return nil, fmt.Errorf("dynpower: %d reference-voltage samples insufficient", len(feats))
	}
	lin, err := stats.NNLS(feats, targets, 0)
	if err != nil {
		return nil, fmt.Errorf("dynpower: regression: %w", err)
	}
	m := &Model{VRef: vRef, Alpha: 2}
	for i := 0; i < len(lin.Weights) && i < len(m.W); i++ {
		m.W[i] = units.JoulesPerEvent(lin.Weights[i])
	}

	// Calibrate α on every sample not at the reference voltage.
	var offRef []Sample
	for _, s := range samples {
		if s.Voltage != vRef {
			offRef = append(offRef, s)
		}
	}
	if len(offRef) > 0 {
		loss := func(alpha float64) float64 {
			m.Alpha = alpha
			var sum float64
			for _, s := range offRef {
				d := float64(m.EstimateRates(s.Rates, s.Voltage) - s.DynW)
				sum += d * d
			}
			return sum
		}
		m.Alpha = stats.GoldenSection(loss, 1.0, 5.0, 60)
	}
	return m, nil
}

// Validate returns the per-sample absolute relative errors of the model
// on a sample set.
func (m *Model) Validate(samples []Sample) stats.ErrorSummary {
	var errs []float64
	for _, s := range samples {
		errs = append(errs, stats.AbsPctErr(float64(m.EstimateRates(s.Rates, s.Voltage)), float64(s.DynW)))
	}
	return stats.SummarizeAbsErrors(errs)
}
