package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"ppep/internal/units"
)

func TestStartsAtAmbient(t *testing.T) {
	m := New(200, 0.3, 298)
	if m.TempK() != 298 {
		t.Errorf("initial temp %v", m.TempK())
	}
}

func TestHeatsTowardSteadyState(t *testing.T) {
	m := New(200, 0.3, 300)
	want := m.SteadyTempK(100) // 330 K
	if want != 330 {
		t.Fatalf("steady temp %v", want)
	}
	for i := 0; i < 100000; i++ {
		m.Step(100, 0.01)
	}
	if math.Abs(float64(m.TempK()-want)) > 0.01 {
		t.Errorf("temp %v after long heating, want %v", m.TempK(), want)
	}
}

func TestCoolsToAmbient(t *testing.T) {
	m := New(200, 0.3, 300)
	m.SetTempK(340)
	for i := 0; i < 100000; i++ {
		m.Step(0, 0.01)
	}
	if math.Abs(float64(m.TempK()-300)) > 0.01 {
		t.Errorf("temp %v after cooling, want 300", m.TempK())
	}
}

func TestTimeConstant(t *testing.T) {
	m := New(200, 0.3, 300)
	if m.TimeConstantS() != 60 {
		t.Errorf("tau = %v", m.TimeConstantS())
	}
	// After one time constant of heating from ambient, the node should be
	// at 1−1/e ≈ 63.2% of the way to steady state.
	steps := 60000
	for i := 0; i < steps; i++ {
		m.Step(100, 0.001)
	}
	frac := float64(m.TempK()-300) / float64(m.SteadyTempK(100)-300)
	if math.Abs(frac-(1-1/math.E)) > 0.005 {
		t.Errorf("fraction after tau = %v, want %v", frac, 1-1/math.E)
	}
}

func TestStepSizeIndependence(t *testing.T) {
	// The exponential update must give the same trajectory for different
	// step sizes (property of the exact ODE solution).
	a := New(200, 0.3, 300)
	b := New(200, 0.3, 300)
	for i := 0; i < 1000; i++ {
		a.Step(80, 0.01)
	}
	for i := 0; i < 10; i++ {
		b.Step(80, 1.0)
	}
	if math.Abs(float64(a.TempK()-b.TempK())) > 0.05 {
		t.Errorf("step-size dependence: %v vs %v", a.TempK(), b.TempK())
	}
}

// TestStepDecayCache pins the cached decay factor: a model whose step
// size or time constant changes between steps lands bit-for-bit where a
// fresh model stepped once from the same temperature lands, including
// steps long enough for the factor to underflow to zero; and a first
// step so short that dt/τ itself underflows to zero leaves the
// temperature where it was.
func TestStepDecayCache(t *testing.T) {
	m := New(200, 0.3, 300)
	steps := []struct {
		p   units.Watts
		dt  units.Seconds
		rth units.KelvinPerWatt
	}{
		{100, 0.001, 0.3}, {100, 0.001, 0.3}, {90, 0.2, 0.3}, {90, 0.001, 0.3},
		{80, 0.001, 0.25}, {80, 1e6, 0.25}, {80, 1e6, 0.25}, {70, 0.001, 0.25},
	}
	for i, s := range steps {
		m.RthKPerW = s.rth
		fresh := New(200, s.rth, 300)
		fresh.SetTempK(m.TempK())
		m.Step(s.p, s.dt)
		fresh.Step(s.p, s.dt)
		if m.TempK() != fresh.TempK() {
			t.Fatalf("step %d: cached model at %v K, fresh model at %v K", i, m.TempK(), fresh.TempK())
		}
	}
	m = New(200, 0.3, 300)
	m.SetTempK(320)
	m.Step(100, 5e-324)
	if m.TempK() != 320 {
		t.Errorf("a step of e^(−0) moved the temperature to %v K", m.TempK())
	}
}

func TestZeroOrNegativeDtIsNoop(t *testing.T) {
	m := New(200, 0.3, 300)
	m.SetTempK(320)
	m.Step(100, 0)
	m.Step(100, -1)
	if m.TempK() != 320 {
		t.Errorf("temp changed on no-op step: %v", m.TempK())
	}
}

func TestExpNegAccuracy(t *testing.T) {
	for _, x := range []float64{0, 1e-6, 0.001, 0.1, 0.5, 1, 2, 5, 10, 29} {
		got := expNeg(x)
		want := math.Exp(-x)
		if math.Abs(got-want) > 1e-12*want+1e-300 {
			t.Errorf("expNeg(%v) = %v, want %v", x, got, want)
		}
	}
	if expNeg(100) > 1e-40 {
		t.Error("large x should be ~0")
	}
	if expNeg(-1) != 1 {
		t.Error("negative x clamps to 1")
	}
}

func TestMonotoneApproach(t *testing.T) {
	// Property: temperature approaches steady state monotonically.
	f := func(power, start uint8) bool {
		p := units.Watts(power%150) + 1
		m := New(190, 0.32, 300)
		m.SetTempK(280 + units.Kelvin(start%120))
		tss := m.SteadyTempK(p)
		prev := m.TempK()
		for i := 0; i < 100; i++ {
			m.Step(p, 0.5)
			cur := m.TempK()
			if prev < tss && (cur < prev-1e-9 || cur > tss+1e-9) {
				return false
			}
			if prev > tss && (cur > prev+1e-9 || cur < tss-1e-9) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDefaultFX8320Shape(t *testing.T) {
	m := DefaultFX8320()
	// Figure 1 shows roughly a 300→335 K swing under heavy load.
	hot := m.SteadyTempK(110)
	if hot < 325 || hot > 345 {
		t.Errorf("steady hot temp %v outside Figure 1's plausible band", hot)
	}
	tau := m.TimeConstantS()
	if tau < 30 || tau > 120 {
		t.Errorf("time constant %v s implausible for a desktop cooler", tau)
	}
}
