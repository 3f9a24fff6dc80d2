// Package sensor emulates the paper's power measurement apparatus: a
// Pololu ACS711 Hall-effect current sensor clamped on the +12 V ATX line
// of the CPU, sampled by an Arduino AVR microcontroller every 20 ms
// (Section II). What the models train on is this measured signal — VRM
// conversion loss, ADC quantization, and sensor noise included — exactly
// as on the real testbed.
package sensor

import "math/rand"

// PowerSensor produces 20 ms power readings from the true chip power.
type PowerSensor struct {
	// VRMEfficiency is the voltage-regulator efficiency: the 12 V line
	// carries chip power divided by this factor.
	VRMEfficiency float64
	// NoiseSD is the Gaussian noise σ of one reading, in watts.
	NoiseSD float64
	// QuantW is the ADC quantization step in watts (ACS711 through a
	// 10-bit AVR ADC ≈ 0.4 W at 12 V).
	QuantW float64

	rng *rand.Rand
}

// New returns a sensor with the given measurement imperfections. A nil-safe
// deterministic RNG is seeded from `seed`.
func New(vrmEff, noiseSD, quantW float64, seed int64) *PowerSensor {
	return &PowerSensor{
		VRMEfficiency: vrmEff,
		NoiseSD:       noiseSD,
		QuantW:        quantW,
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// Default returns the sensor configuration used across experiments:
// 92% VRM efficiency, 0.8 W reading noise, 0.4 W quantization.
func Default(seed int64) *PowerSensor { return New(0.92, 0.8, 0.4, seed) }

// Sample converts one instantaneous true chip power into a sensor reading.
func (s *PowerSensor) Sample(trueChipW float64) float64 {
	w := trueChipW
	if s.VRMEfficiency > 0 {
		w /= s.VRMEfficiency
	}
	if s.NoiseSD > 0 {
		w += s.rng.NormFloat64() * s.NoiseSD
	}
	if s.QuantW > 0 {
		steps := int(w/s.QuantW + 0.5)
		w = float64(steps) * s.QuantW
	}
	if w < 0 {
		w = 0
	}
	return w
}

// Skip advances the sensor past n readings: it draws exactly what n
// calls to Sample would, so a sensor skipped past another one's readings
// continues the noise sequence that one would have produced from the same
// seed.
func (s *PowerSensor) Skip(n int64) {
	if s.NoiseSD <= 0 {
		return
	}
	for ; n > 0; n-- {
		s.rng.NormFloat64()
	}
}

// Ideal returns a noiseless, lossless sensor (oracle ablations).
func Ideal() *PowerSensor { return New(1, 0, 0, 1) }
