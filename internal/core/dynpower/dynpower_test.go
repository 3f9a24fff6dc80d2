package dynpower

import (
	"math"
	"math/rand"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/units"
)

// synthSamples draws samples from a known Equation-3-form truth.
func synthSamples(trueW [arch.NumPowerEvents]float64, alpha, vRef float64, voltages []float64, n int, noise float64, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []Sample
	for i := 0; i < n; i++ {
		v := voltages[i%len(voltages)]
		var s Sample
		s.Voltage = units.Volts(v)
		scale := math.Pow(v/vRef, alpha)
		for j := range s.Rates {
			s.Rates[j] = rng.Float64() * 1e9
			w := trueW[j]
			if j < NumScaled {
				s.DynW += units.Watts(scale * w * s.Rates[j])
			} else {
				s.DynW += units.Watts(w * s.Rates[j])
			}
		}
		s.DynW += units.Watts(rng.NormFloat64() * noise)
		if s.DynW < 0 {
			s.DynW = 0
		}
		out = append(out, s)
	}
	return out
}

var testW = [arch.NumPowerEvents]float64{
	5e-10, 9e-10, 3e-10, 5e-10, 2e-9, 1e-10, 6e-9, 3e-9, 5e-11,
}

func TestTrainRecoversWeights(t *testing.T) {
	samples := synthSamples(testW, 2.3, 1.32, []float64{1.32}, 400, 0, 1)
	m, err := Train(samples, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range testW {
		if math.Abs(float64(m.W[i])-w)/w > 1e-2 {
			t.Errorf("W[%d] = %v, want %v", i, m.W[i], w)
		}
	}
}

func TestTrainCalibratesAlpha(t *testing.T) {
	voltages := []float64{1.32, 1.242, 1.128, 1.008, 0.888}
	samples := synthSamples(testW, 2.3, 1.32, voltages, 1000, 0, 2)
	m, err := Train(samples, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-2.3) > 0.01 {
		t.Errorf("alpha = %v, want 2.3", m.Alpha)
	}
}

func TestTrainAlphaDefaultsWithoutOffRefSamples(t *testing.T) {
	samples := synthSamples(testW, 2.3, 1.32, []float64{1.32}, 100, 0, 3)
	m, err := Train(samples, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha != 2 {
		t.Errorf("alpha = %v, want default 2", m.Alpha)
	}
}

func TestTrainInsufficientSamples(t *testing.T) {
	samples := synthSamples(testW, 2.3, 1.32, []float64{1.32}, 5, 0, 4)
	if _, err := Train(samples, 1.32); err == nil {
		t.Error("5 samples accepted for 9 weights")
	}
	// Samples at the wrong voltage don't count as reference samples.
	samples = synthSamples(testW, 2.3, 1.32, []float64{1.1}, 100, 0, 5)
	if _, err := Train(samples, 1.32); err == nil {
		t.Error("no reference-voltage samples accepted")
	}
}

func TestWeightsNonNegative(t *testing.T) {
	// Heavy noise would push plain OLS weights negative; NNLS must not.
	samples := synthSamples(testW, 2.3, 1.32, []float64{1.32}, 300, 5, 6)
	m, err := Train(samples, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range m.W {
		if w < 0 {
			t.Errorf("W[%d] = %v < 0", i, w)
		}
	}
}

func TestEstimateScalesOnlyCoreEvents(t *testing.T) {
	m := &Model{Alpha: 2, VRef: 1.32}
	for i := range m.W {
		m.W[i] = 1e-9
	}
	var coreOnly, nbOnly [arch.NumPowerEvents]float64
	coreOnly[0] = 1e9 // E1
	nbOnly[8] = 1e9   // E9
	vLow := units.Volts(0.888)
	scale := math.Pow(float64(vLow)/1.32, 2)
	if got := m.EstimateRates(coreOnly, vLow); math.Abs(float64(got)-scale) > 1e-12 {
		t.Errorf("core event at low V: %v, want %v", got, scale)
	}
	if got := m.EstimateRates(nbOnly, vLow); math.Abs(float64(got-1.0)) > 1e-12 {
		t.Errorf("NB event must not scale: %v, want 1", got)
	}
}

func TestEstimateCoreMatchesRates(t *testing.T) {
	m := &Model{Alpha: 2, VRef: 1.32}
	for i := range m.W {
		m.W[i] = units.JoulesPerEvent(i+1) * 1e-10
	}
	var ev arch.EventVec
	for i := 0; i < arch.NumPowerEvents; i++ {
		ev[i] = float64(i) * 1e8
	}
	if m.EstimateCore(&ev, 1.1) != m.EstimateRates(ev.PowerEvents(), 1.1) {
		t.Error("EstimateCore and EstimateRates disagree")
	}
}

func TestValidateSummary(t *testing.T) {
	samples := synthSamples(testW, 2.3, 1.32, []float64{1.32, 1.008}, 500, 0, 7)
	m, err := Train(samples, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Validate(samples)
	if s.Mean > 1e-2 {
		t.Errorf("noiseless validation error %v", s.Mean)
	}
	if s.N != 500 {
		t.Errorf("N = %d", s.N)
	}
}

func TestValidationErrorGrowsWithNoise(t *testing.T) {
	clean := synthSamples(testW, 2.3, 1.32, []float64{1.32}, 300, 0.5, 8)
	noisy := synthSamples(testW, 2.3, 1.32, []float64{1.32}, 300, 5, 9)
	mc, err := Train(clean, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := Train(noisy, 1.32)
	if err != nil {
		t.Fatal(err)
	}
	if mn.Validate(noisy).Mean <= mc.Validate(clean).Mean {
		t.Error("noisier data should validate worse")
	}
}

func TestScaleIdentityAtVRef(t *testing.T) {
	m := &Model{Alpha: 2.7, VRef: 1.32}
	if m.scale(1.32) != 1 {
		t.Error("scale at VRef must be exactly 1")
	}
	if m.scale(0.888) >= 1 {
		t.Error("scale below VRef must shrink")
	}
}
