// Package thermal models the package/heatsink thermal path of the
// simulated processor as a lumped RC node. The paper's idle power model
// (Section IV-A) is trained on exactly the transient this model produces:
// heat the chip under load, cut the load, and record power and the socket
// thermal diode while it cools (Figure 1).
package thermal

import (
	"math"

	"ppep/internal/units"
)

// Model is a single-node RC thermal model: a heat capacity Cth coupled to
// ambient through resistance Rth. dT/dt = (P − (T−Tamb)/Rth) / Cth.
type Model struct {
	// CthJPerK is the lumped heat capacity of die + spreader + sink.
	CthJPerK units.JoulesPerKelvin
	// RthKPerW is the junction-to-ambient thermal resistance.
	RthKPerW units.KelvinPerWatt
	// AmbientK is the ambient (intake air) temperature.
	AmbientK units.Kelvin

	tempK units.Kelvin
	// decay caches e^(−dt/τ) for the ratio decayX: the tick loop steps
	// with one dt and a fixed τ, so Step recomputes the exponential only
	// when the ratio changes. decay == 0 marks the cache empty (it also
	// sends a ratio whose exponential underflows to 0 back to expNeg).
	decayX, decay float64
}

// DefaultFX8320 returns the thermal model used for the FX-8320 platform:
// a tower-cooler class sink with a ~60 s time constant, reaching roughly
// +35 K over ambient at ~110 W — consistent with the 300→335 K swing in
// Figure 1.
func DefaultFX8320() *Model {
	return New(190, 0.32, 300)
}

// New builds a model at thermal equilibrium with ambient.
func New(cth units.JoulesPerKelvin, rth units.KelvinPerWatt, ambientK units.Kelvin) *Model {
	return &Model{CthJPerK: cth, RthKPerW: rth, AmbientK: ambientK, tempK: ambientK}
}

// Step advances the node by dt under powerW of dissipation. It uses the
// exact exponential solution of the linear ODE over the step, so large
// steps remain stable.
func (m *Model) Step(powerW units.Watts, dt units.Seconds) {
	if dt <= 0 {
		return
	}
	// Steady state for this power level.
	tss := m.AmbientK + m.RthKPerW.Times(powerW)
	tau := m.RthKPerW.TimesHeatCap(m.CthJPerK)
	// T(t+dt) = Tss + (T−Tss)·e^(−dt/τ)
	if x := dt.Per(tau); x != m.decayX || m.decay == 0 {
		m.decayX, m.decay = x, expNeg(x)
	}
	m.tempK = tss + units.Kelvin(float64(m.tempK-tss)*m.decay)
}

// TempK returns the current junction temperature.
func (m *Model) TempK() units.Kelvin { return m.tempK }

// SetTempK forces the node temperature (used to start experiments from a
// known thermal state).
func (m *Model) SetTempK(t units.Kelvin) { m.tempK = t }

// SteadyTempK returns the equilibrium temperature at the given power.
func (m *Model) SteadyTempK(powerW units.Watts) units.Kelvin {
	return m.AmbientK + m.RthKPerW.Times(powerW)
}

// expNeg computes e^(−x) for x ≥ 0, clamping negative inputs to zero so
// Step never amplifies the distance to steady state.
func expNeg(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-x)
}
