package fleet

import (
	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// SlimModels trains a reduced but valid PPEP model set in under a
// second: idle heat/cool traces at every VF state plus four SPEC
// benchmarks across the table — the same slimmed campaign the serve
// package's tests train with. The fleet smoke CLI and the loadgen
// self-serve mode both use it where a full Section IV campaign would
// dominate their runtime.
func SlimModels() (*core.Models, error) {
	idle := map[arch.VFState]*trace.Trace{}
	// Every state's transient shares one config, and the heating phase
	// does not depend on the state: heat one chip and cool a fork of it
	// per state.
	cfg := fxsim.DefaultFX8320Config()
	heated := fxsim.New(cfg)
	if err := heated.Heat(40); err != nil {
		return nil, err
	}
	for _, vf := range arch.FX8320VFTable.States() {
		tr, err := heated.Fork(cfg.SensorSeed).Cool(vf, 80)
		if err != nil {
			return nil, err
		}
		idle[vf] = tr
	}
	return trainSlim(idle)
}

// trainSlim collects the slim model set's benchmark runs and trains the
// models on them and the given idle transients.
func trainSlim(idle map[arch.VFState]*trace.Trace) (*core.Models, error) {
	ts := core.TrainingSet{IdleTraces: idle}
	for _, num := range []string{"429", "433", "458", "416"} {
		b := *workload.SPECByNumber(num)
		b.Instructions = 8e9
		for _, vf := range arch.FX8320VFTable.States() {
			chip := fxsim.New(fxsim.DefaultFX8320Config())
			r := workload.Run{Name: num, Suite: "SPE",
				Members: []workload.Member{{Bench: &b, Threads: 1}}}
			tr, err := chip.Collect(r, fxsim.RunOpts{VF: vf, WarmTempK: 315})
			if err != nil {
				return nil, err
			}
			ts.Runs = append(ts.Runs, core.RunTrace{Name: num, Suite: "SPE", VF: vf, Trace: tr})
		}
	}
	return core.Train(ts, arch.FX8320VFTable)
}
