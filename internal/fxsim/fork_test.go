package fxsim

import (
	"reflect"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/workload"
)

// TestForkCoolMatchesHeatCool pins the campaign's heat-once shortcut: a
// fork of one heated chip, reseeded and cooled at any VF state, reads
// the trace a fresh chip with that seed produces through HeatCool. It
// covers both platforms with the noisy and the ideal sensor, and checks
// that cooling the parent itself after forking still matches a fresh run.
func TestForkCoolMatchesHeatCool(t *testing.T) {
	const heatS, coolS = 10, 20
	platforms := []struct {
		name string
		cfg  Config
	}{
		{"FX8320", DefaultFX8320Config()},
		{"PhenomII", DefaultPhenomIIConfig()},
	}
	for _, p := range platforms {
		for _, ideal := range []bool{false, true} {
			cfg := p.cfg
			cfg.IdealSensor = ideal
			name := p.name + "/noisy"
			if ideal {
				name = p.name + "/ideal"
			}
			t.Run(name, func(t *testing.T) {
				fresh := func(seed int64, vf arch.VFState) uint64 {
					c := cfg
					c.SensorSeed = seed
					tr, err := New(c).HeatCool(vf, heatS, coolS)
					if err != nil {
						t.Fatal(err)
					}
					return tr.Fingerprint()
				}
				heated := New(cfg)
				if err := heated.Heat(heatS); err != nil {
					t.Fatal(err)
				}
				for i, vf := range cfg.Topology.VF.States() {
					seed := int64(1000 + i)
					tr, err := heated.Fork(seed).Cool(vf, coolS)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := tr.Fingerprint(), fresh(seed, vf); got != want {
						t.Errorf("%v: forked cool fingerprint %#x, fresh HeatCool %#x", vf, got, want)
					}
				}
				top := cfg.Topology.VF.Top()
				tr, err := heated.Cool(top, coolS)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := tr.Fingerprint(), fresh(cfg.SensorSeed, top); got != want {
					t.Errorf("parent cooled after forking: fingerprint %#x, fresh HeatCool %#x", got, want)
				}
			})
		}
	}
}

// TestForkIsDeepCopy forks a chip mid-interval with threads bound and
// counter files attached. A fork under the chip's own seed must equal
// the chip field for field (a field Fork forgets reads zero), share no
// slice or pointer with it, and leave it untouched while the fork runs.
func TestForkIsDeepCopy(t *testing.T) {
	cfg := DefaultFX8320Config()
	cfg.PowerGating = true
	parent := New(cfg)
	if _, err := parent.PlaceRun(workload.MultiInstance("433", 2), PlaceScatter, true); err != nil {
		t.Fatal(err)
	}
	if err := parent.SetPState(1, arch.VF2); err != nil {
		t.Fatal(err)
	}
	parent.TickN(333)
	parent.EnableCounterFiles()
	for slot := 0; slot < 2; slot++ {
		if err := parent.CounterFile(0).Program(slot, arch.Events[slot].Code); err != nil {
			t.Fatal(err)
		}
	}
	parent.TickN(57)

	twin := parent.Fork(cfg.SensorSeed)
	if !reflect.DeepEqual(parent, twin) {
		t.Fatal("fork under the parent's own seed differs from the parent")
	}
	pv, tv := reflect.ValueOf(parent).Elem(), reflect.ValueOf(twin).Elem()
	for i := 0; i < pv.NumField(); i++ {
		name := pv.Type().Field(i).Name
		pf, tf := pv.Field(i), tv.Field(i)
		switch pf.Kind() {
		case reflect.Slice:
			if pf.Len() > 0 && pf.Pointer() == tf.Pointer() {
				t.Errorf("fork shares the %s slice", name)
			}
		case reflect.Pointer:
			if !pf.IsNil() && pf.Pointer() == tf.Pointer() {
				t.Errorf("fork shares the %s pointer", name)
			}
		}
	}
	if parent.cfg.NB == twin.cfg.NB {
		t.Error("fork shares the NB config")
	}
	if &parent.breakdown.CoreDynW[0] == &twin.breakdown.CoreDynW[0] ||
		&twin.breakdown.CoreDynW[0] != &twin.scratchDyn[0] ||
		&twin.breakdown.CULeakW[0] != &twin.scratchLeak[0] {
		t.Error("fork's breakdown is not bound to its own scratch")
	}
	for i, cf := range parent.counters {
		if cf == twin.counters[i] {
			t.Errorf("fork shares core %d's counter file", i)
		}
	}

	// Run a second fork hard; the parent must still equal the first.
	busy := parent.Fork(99)
	busy.SetNBPoint(arch.VFPoint{Voltage: 1.0, Freq: 1.4})
	if err := busy.SetAllPStates(arch.VF1); err != nil {
		t.Fatal(err)
	}
	busy.SetTempK(340)
	busy.TickN(1000)
	readInterval(busy)
	if !reflect.DeepEqual(parent, twin) {
		t.Fatal("running a fork changed the parent")
	}
	parent.TickN(400)
	twin.TickN(400)
	if !reflect.DeepEqual(readInterval(parent), readInterval(twin)) {
		t.Error("parent and same-seed fork diverged")
	}
	if a, b := parent.EngineStats(), twin.EngineStats(); a != b {
		t.Errorf("tick counts %+v and %+v diverged", a, b)
	}

	// An all-idle chip reusing its swept breakdown forks with the reuse.
	parent.UnbindAll()
	parent.TickN(30)
	if idle := parent.Fork(cfg.SensorSeed); !parent.idleOK || !reflect.DeepEqual(parent, idle) {
		t.Errorf("fork of an all-idle chip (breakdown reused: %v) differs from the chip", parent.idleOK)
	}
}
