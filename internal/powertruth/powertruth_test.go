package powertruth

import (
	"math"
	"testing"
	"testing/quick"

	"ppep/internal/arch"
	"ppep/internal/units"
)

// busyActivity builds a plausible full-load activity at the given
// instructions-per-second rate.
func busyActivity(ips float64) *Activity {
	var ev arch.EventVec
	ev.Set(arch.RetiredUOP, 1.3*ips)
	ev.Set(arch.FPUPipeAssignment, 0.5*ips)
	ev.Set(arch.InstructionCacheFetches, 0.25*ips)
	ev.Set(arch.DataCacheAccesses, 0.45*ips)
	ev.Set(arch.RequestToL2Cache, 0.02*ips)
	ev.Set(arch.RetiredBranches, 0.15*ips)
	ev.Set(arch.RetiredMispredBranches, 0.005*ips)
	ev.Set(arch.L2CacheMisses, 0.005*ips)
	ev.Set(arch.DispatchStalls, 0.3*ips)
	ev.Set(arch.CPUClocksNotHalted, 1.1*ips)
	ev.Set(arch.RetiredInstructions, ips)
	return &Activity{Events: ev, PrefetchPS: 0.01 * ips, TLBWalkPS: 0.002 * ips}
}

func TestFullLoadChipPowerBallpark(t *testing.T) {
	// Eight busy cores at VF5 plus a loaded NB should land near the
	// FX-8320's real full-load draw (roughly 85–125 W).
	c := DefaultFX8320()
	b := Breakdown{BaseW: c.BaseW}
	for i := 0; i < 8; i++ {
		b.CoreDynW = append(b.CoreDynW, c.CoreDynamicW(busyActivity(4e9), 1.320, 3.5))
	}
	for cu := 0; cu < 4; cu++ {
		b.CULeakW = append(b.CULeakW, c.CULeakageW(1.320, 335, false))
	}
	b.NBDynW = c.NBDynamicW(NBActivity{L3AccessPS: 1.2e8, DRAMPS: 6e7}, 1.175, 2.2)
	b.NBLeakW = c.NBLeakageW(1.175, 335, false)
	b.HousekW = c.HousekeepingDynW(1.320, 3.5, 3.5)
	total := b.TotalW()
	if total < 120 || total > 230 {
		t.Errorf("full-load chip power %v W outside [120,230]", total)
	}
}

func TestIdlePowerBallpark(t *testing.T) {
	// Active idle (not gated) at VF5 should be ~25–45 W; at VF1 ~8–18 W.
	c := DefaultFX8320()
	idleAt := func(v units.Volts, f units.GigaHertz, tK units.Kelvin) units.Watts {
		total := c.BaseW + c.HousekeepingDynW(v, f, 3.5)
		for i := 0; i < 8; i++ {
			total += c.CoreDynamicW(&Activity{Halted: true}, v, f)
		}
		for cu := 0; cu < 4; cu++ {
			total += c.CULeakageW(v, tK, false)
		}
		total += c.NBDynamicW(NBActivity{}, 1.175, 2.2)
		total += c.NBLeakageW(1.175, tK, false)
		return total
	}
	vf5 := idleAt(1.320, 3.5, 320)
	vf1 := idleAt(0.888, 1.4, 308)
	if vf5 < 25 || vf5 > 45 {
		t.Errorf("VF5 idle %v W outside [25,45]", vf5)
	}
	if vf1 < 8 || vf1 > 18 {
		t.Errorf("VF1 idle %v W outside [8,18]", vf1)
	}
	if vf1 >= vf5 {
		t.Error("idle power must drop with VF state")
	}
}

func TestDynamicMonotoneInVoltage(t *testing.T) {
	c := DefaultFX8320()
	a := busyActivity(3e9)
	prev := units.Watts(0)
	for _, v := range []units.Volts{0.888, 1.008, 1.128, 1.242, 1.320} {
		w := c.CoreDynamicW(a, v, 2.0)
		if w <= prev {
			t.Errorf("dynamic power not increasing at %v V: %v <= %v", v, w, prev)
		}
		prev = w
	}
}

func TestDynamicScalesWithActivity(t *testing.T) {
	c := DefaultFX8320()
	lo := c.CoreDynamicW(busyActivity(1e9), 1.32, 3.5)
	hi := c.CoreDynamicW(busyActivity(4e9), 1.32, 3.5)
	if hi <= lo {
		t.Error("more activity must burn more power")
	}
	// Clock power is the activity-independent floor.
	clockOnly := c.CoreDynamicW(&Activity{}, 1.32, 3.5)
	if clockOnly <= 0 {
		t.Error("active clock power must be positive")
	}
	if lo <= clockOnly {
		t.Error("activity must add power above the clock floor")
	}
}

func TestHaltedCoreBurnsOnlyGatedClock(t *testing.T) {
	c := DefaultFX8320()
	halted := c.CoreDynamicW(&Activity{Halted: true}, 1.32, 3.5)
	active := c.CoreDynamicW(&Activity{}, 1.32, 3.5)
	if halted >= active {
		t.Error("halted core must burn less than active-idle core")
	}
	want := units.Watts(float64(c.ClockWPerGHz) * 3.5 * c.HaltedClockFrac)
	if math.Abs(float64(halted-want)) > 1e-9 {
		t.Errorf("halted clock %v, want %v", halted, want)
	}
}

func TestLeakageExponentialInTemperature(t *testing.T) {
	c := DefaultFX8320()
	cold := c.CULeakageW(1.32, 300, false)
	hot := c.CULeakageW(1.32, 340, false)
	ratio := hot.Per(cold)
	want := math.Exp(float64(c.LeakTExp) * 40)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("leakage T ratio %v, want %v", ratio, want)
	}
	if ratio < 1.3 || ratio > 2.2 {
		t.Errorf("40 K swing ratio %v implausible", ratio)
	}
}

func TestLeakageExponentialInVoltage(t *testing.T) {
	c := DefaultFX8320()
	lo := c.CULeakageW(0.888, 330, false)
	hi := c.CULeakageW(1.320, 330, false)
	if hi.Per(lo) < 2.5 || hi.Per(lo) > 8 {
		t.Errorf("voltage leakage ratio %v implausible", hi.Per(lo))
	}
}

func TestPowerGatingResidual(t *testing.T) {
	c := DefaultFX8320()
	open := c.CULeakageW(1.32, 330, false)
	gated := c.CULeakageW(1.32, 330, true)
	wantGated := units.Watts(float64(open) * c.GateResid)
	if math.Abs(float64(gated-wantGated)) > 1e-12 {
		t.Errorf("gated leakage %v, want %v", gated, wantGated)
	}
	openNB := c.NBLeakageW(1.175, 330, false)
	gatedNB := c.NBLeakageW(1.175, 330, true)
	if gatedNB >= openNB {
		t.Error("gated NB must leak less")
	}
}

func TestNBDynamicComponents(t *testing.T) {
	c := DefaultFX8320()
	idle := c.NBDynamicW(NBActivity{}, 1.175, 2.2)
	if math.Abs(float64(idle-c.NBClockWPerGHz.Times(2.2))) > 1e-9 {
		t.Errorf("NB idle clock %v", idle)
	}
	busy := c.NBDynamicW(NBActivity{L3AccessPS: 1e8, DRAMPS: 5e7}, 1.175, 2.2)
	if busy <= idle {
		t.Error("NB traffic must add power")
	}
	// The Section V-C2 assumption check: dropping NB voltage 20% cuts
	// dynamic energy per operation by ≈36% (V² scaling).
	opHi := c.NBDynamicW(NBActivity{DRAMPS: 1e8}, 1.175, 2.2) - c.NBDynamicW(NBActivity{}, 1.175, 2.2)
	opLo := c.NBDynamicW(NBActivity{DRAMPS: 1e8}, 0.940, 2.2) - c.NBDynamicW(NBActivity{}, 0.940, 2.2)
	if math.Abs(opLo.Per(opHi)-0.64) > 0.01 {
		t.Errorf("per-op NB energy scale %v, want ≈0.64", opLo.Per(opHi))
	}
}

func TestHousekeepingScales(t *testing.T) {
	c := DefaultFX8320()
	top := c.HousekeepingDynW(1.320, 3.5, 3.5)
	if math.Abs(float64(top-c.HousekeepingW)) > 1e-12 {
		t.Errorf("housekeeping at top = %v", top)
	}
	low := c.HousekeepingDynW(0.888, 1.4, 3.5)
	if low >= top {
		t.Error("housekeeping must scale down with VF")
	}
}

func TestBreakdownSums(t *testing.T) {
	b := Breakdown{
		CoreDynW: []units.Watts{1, 2},
		CULeakW:  []units.Watts{3},
		NBDynW:   4, NBLeakW: 5, BaseW: 6, HousekW: 7,
	}
	if b.TotalW() != 28 {
		t.Errorf("TotalW = %v", b.TotalW())
	}
	if b.CoreTotalW() != 13 {
		t.Errorf("CoreTotalW = %v", b.CoreTotalW())
	}
	if b.NBTotalW() != 15 {
		t.Errorf("NBTotalW = %v", b.NBTotalW())
	}
	if math.Abs(float64(b.TotalW()-(b.CoreTotalW()+b.NBTotalW()))) > 1e-12 {
		t.Error("core+NB split must cover the total")
	}
}

func TestEffectiveAlphaInPlausibleRange(t *testing.T) {
	// The truth's switching scale, fitted as (V/V5)^α over the VF table,
	// should give α ≈ 2–3 — the paper says α is a process constant
	// derived from measurement.
	c := DefaultFX8320()
	num, den := 0.0, 0.0
	for _, v := range []units.Volts{0.888, 1.008, 1.128, 1.242} {
		x := math.Log(v.Per(c.VRef))
		y := math.Log(c.switchScale(v))
		num += x * y
		den += x * x
	}
	alpha := num / den
	if alpha < 2.0 || alpha > 3.2 {
		t.Errorf("effective alpha %v outside [2.0, 3.2]", alpha)
	}
}

func TestSwitchScalePositiveProperty(t *testing.T) {
	c := DefaultFX8320()
	f := func(raw uint16) bool {
		v := 0.7 + units.Volts(raw)/units.Volts(1<<16)*0.8 // 0.7–1.5 V
		return c.switchScale(v) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPhenomConfigDiffers(t *testing.T) {
	fx := DefaultFX8320()
	ph := DefaultPhenomII()
	if ph.VRef == fx.VRef || ph.CULeakW == fx.CULeakW {
		t.Error("Phenom II config should differ from FX-8320")
	}
}
