package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestL3LatencyScalesWithNBFreq(t *testing.T) {
	nb := DefaultFX8320NB()
	hi := nb.L3HitLatencyNS()
	nb.FreqGHz /= 2
	lo := nb.L3HitLatencyNS()
	if math.Abs(lo-2*hi) > 1e-9 {
		t.Errorf("halving NB clock should double L3 latency: %v vs %v", lo, hi)
	}
}

func TestDRAMLatencyComponents(t *testing.T) {
	nb := DefaultFX8320NB()
	base := nb.DRAMLatencyNS(0)
	want := nb.CtrlCycles/nb.FreqGHz + nb.DRAMFixedNS
	if math.Abs(base-want) > 1e-9 {
		t.Errorf("zero-util latency %v, want %v", base, want)
	}
	// Halving NB frequency only stretches the controller part.
	nb.FreqGHz /= 2
	lo := nb.DRAMLatencyNS(0)
	wantLo := 2*nb.CtrlCycles/2.2 + nb.DRAMFixedNS
	if math.Abs(lo-wantLo) > 1e-9 {
		t.Errorf("half-clock latency %v, want %v", lo, wantLo)
	}
}

func TestQueueingMonotone(t *testing.T) {
	nb := DefaultFX8320NB()
	prev := nb.DRAMLatencyNS(0)
	for u := 0.05; u <= 1.2; u += 0.05 {
		cur := nb.DRAMLatencyNS(u)
		if cur < prev-1e-12 {
			t.Errorf("latency decreased at util %v: %v < %v", u, cur, prev)
		}
		prev = cur
	}
}

func TestQueueingBounded(t *testing.T) {
	nb := DefaultFX8320NB()
	over := nb.DRAMLatencyNS(5) // overload clamps at MaxUtil
	atMax := nb.DRAMLatencyNS(nb.MaxUtil)
	if over != atMax {
		t.Errorf("overload latency %v, want clamp at %v", over, atMax)
	}
	if math.IsInf(over, 0) || math.IsNaN(over) {
		t.Error("latency must stay finite")
	}
}

func TestUtilization(t *testing.T) {
	nb := DefaultFX8320NB()
	// 18 GB/s ÷ 64 B = 281.25 M req/s saturates.
	sat := nb.BandwidthGBs * 1e9 / nb.LineBytes
	if got := nb.Utilization(sat); math.Abs(got-1) > 1e-9 {
		t.Errorf("util at saturation = %v", got)
	}
	if got := nb.Utilization(sat / 2); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("util at half = %v", got)
	}
	if nb.Utilization(0) != 0 || nb.Utilization(-5) != 0 {
		t.Error("non-positive rates must give zero util")
	}
}

func TestSnapshot(t *testing.T) {
	nb := DefaultFX8320NB()
	s := nb.Snapshot(0.3)
	if s.L3NS != nb.L3HitLatencyNS() {
		t.Error("snapshot L3 mismatch")
	}
	if s.DRAMNS != nb.DRAMLatencyNS(0.3) {
		t.Error("snapshot DRAM mismatch")
	}
}

func TestLeadingLoadPerInst(t *testing.T) {
	lat := Latencies{L3NS: 20, DRAMNS: 100}
	// 0.02 misses/inst, 50% to DRAM, MLP 2:
	// (0.01·20 + 0.01·100)/2 = 0.6 ns/inst.
	got := LeadingLoadNSPerInst(0.02, 0.5, 2, &lat)
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("LL time %v, want 0.6", got)
	}
	// MLP below 1 clamps to 1.
	if LeadingLoadNSPerInst(0.02, 0.5, 0.1, &lat) != LeadingLoadNSPerInst(0.02, 0.5, 1, &lat) {
		t.Error("MLP clamp missing")
	}
	// No misses → no memory time.
	if LeadingLoadNSPerInst(0, 0.5, 2, &lat) != 0 {
		t.Error("zero misses must give zero")
	}
}

func TestLeadingLoadProperties(t *testing.T) {
	lat := Latencies{L3NS: 20, DRAMNS: 100}
	f := func(missRaw, ratioRaw, mlpRaw uint16) bool {
		miss := float64(missRaw) / float64(1<<16) * 0.1
		ratio := float64(ratioRaw) / float64(1<<16)
		mlp := 1 + float64(mlpRaw)/float64(1<<16)*3
		ll := LeadingLoadNSPerInst(miss, ratio, mlp, &lat)
		if ll < 0 {
			return false
		}
		// More DRAM traffic (higher ratio) can only increase time.
		ll2 := LeadingLoadNSPerInst(miss, ratio*0.5, mlp, &lat)
		return ll2 <= ll+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNBDVFSLatencyShape(t *testing.T) {
	// Sanity for the Section V-C2 what-if: halving the NB clock should
	// increase leading-load time substantially but less than 2×, because
	// the DRAM core latency is fixed.
	nb := DefaultFX8320NB()
	hi := nb.Snapshot(0.2)
	nb.FreqGHz, nb.VoltageV = 1.1, 0.940
	lo := nb.Snapshot(0.2)
	llHi := LeadingLoadNSPerInst(0.02, 0.6, 1.5, &hi)
	llLo := LeadingLoadNSPerInst(0.02, 0.6, 1.5, &lo)
	ratio := llLo / llHi
	if ratio <= 1.1 || ratio >= 2.0 {
		t.Errorf("LL inflation at NB-low = %v, want within (1.1, 2.0)", ratio)
	}
}
