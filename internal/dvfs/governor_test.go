package dvfs

import (
	"testing"

	"ppep/internal/arch"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// runGovernor executes a time-bounded mixed run under the given governor.
func runGovernor(t *testing.T, ctl fxsim.Controller, seconds float64) {
	t.Helper()
	cfg := fxsim.DefaultFX8320Config()
	cfg.PowerGating = true
	chip := fxsim.New(cfg)
	b := *workload.SPECByNumber("458")
	b.Instructions = 1e12
	run := workload.Run{Name: "gov", Suite: "SPE",
		Members: []workload.Member{{Bench: &b, Threads: 2}}}
	if _, err := chip.Collect(run, fxsim.RunOpts{
		VF: arch.VF5, MaxTimeS: seconds, Restart: true, WarmTempK: 318,
		Controller: ctl, Placement: fxsim.PlaceScatter,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticGovernorPins(t *testing.T) {
	g := &StaticGovernor{State: arch.VF2}
	runGovernor(t, g, 3)
	if len(g.History) == 0 {
		t.Fatal("no history")
	}
	for _, st := range g.History[1:] { // first interval ran at VF5
		if st.VF != arch.VF2 {
			t.Errorf("t=%.1f at %v, want VF2", st.TimeS, st.VF)
		}
	}
}

func TestOnDemandRaisesUnderLoad(t *testing.T) {
	g := &OnDemandGovernor{}
	// Start low: a busy chip must be driven up to the top state.
	cfg := fxsim.DefaultFX8320Config()
	chip := fxsim.New(cfg)
	b := *workload.SPECByNumber("458")
	b.Instructions = 1e12
	run := workload.Run{Name: "od", Suite: "SPE",
		Members: []workload.Member{{Bench: &b, Threads: 2}}}
	if _, err := chip.Collect(run, fxsim.RunOpts{
		VF: arch.VF1, MaxTimeS: 2, Restart: true, WarmTempK: 318,
		Controller: g, Placement: fxsim.PlaceScatter,
	}); err != nil {
		t.Fatal(err)
	}
	last := g.History[len(g.History)-1]
	if last.VF != arch.VF5 {
		t.Errorf("ondemand stayed at %v under full load", last.VF)
	}
}

func TestOnDemandDropsWhenIdle(t *testing.T) {
	g := &OnDemandGovernor{}
	cfg := fxsim.DefaultFX8320Config()
	chip := fxsim.New(cfg)
	// No workload at all: utilization zero, must walk down to VF1.
	for i := 0; i < 6; i++ {
		chip.TickN(200)
		var iv trace.Interval
		chip.ReadIntervalInto(&iv)
		g.Decide(chip, iv)
	}
	if chip.PState(0) != arch.VF1 {
		t.Errorf("idle chip at %v, want VF1", chip.PState(0))
	}
}

func TestEnergyHelpers(t *testing.T) {
	hist := []GovStep{{MeasW: 50, Instructions: 1e9}, {MeasW: 70, Instructions: 2e9}}
	if got := EnergyJ(hist, 0.2); got != 24 {
		t.Errorf("EnergyJ = %v", got)
	}
	if got := Instructions(hist); got != 3e9 {
		t.Errorf("Instructions = %v", got)
	}
}

func TestPPEPGovernorsSteer(t *testing.T) {
	m := trainedModels(t)
	eg := &PPEPGovernor{Models: m, Pick: EnergyOptimal}
	runGovernor(t, eg, 3)
	lastE := eg.History[len(eg.History)-1]
	if lastE.VF > arch.VF2 {
		t.Errorf("energy governor parked at %v, want a low state", lastE.VF)
	}
	pg := &PPEPGovernor{Models: m, Pick: EDPOptimal}
	runGovernor(t, pg, 3)
	lastP := pg.History[len(pg.History)-1]
	if lastP.VF < arch.VF3 {
		t.Errorf("EDP governor parked at %v, want a high state for CPU-bound work", lastP.VF)
	}
	// The energy governor must spend less energy per instruction than
	// the EDP governor; the EDP governor must retire instructions faster.
	eJPI := float64(EnergyJ(eg.History, 0.2)) / Instructions(eg.History)
	pJPI := float64(EnergyJ(pg.History, 0.2)) / Instructions(pg.History)
	if eJPI >= pJPI {
		t.Errorf("energy governor %.3g J/inst not below EDP governor %.3g", eJPI, pJPI)
	}
	if Instructions(pg.History) <= Instructions(eg.History) {
		t.Error("EDP governor should retire more instructions")
	}
}
