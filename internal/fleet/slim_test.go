package fleet

import (
	"reflect"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
)

// TestSlimModelsHeatOnce checks that heating one chip and cooling a fork
// of it per state trains the models a fresh heat/cool chip per state
// trains.
func TestSlimModelsHeatOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two slim model sets")
	}
	got, err := SlimModels()
	if err != nil {
		t.Fatal(err)
	}
	idle := map[arch.VFState]*trace.Trace{}
	for _, vf := range arch.FX8320VFTable.States() {
		chip := fxsim.New(fxsim.DefaultFX8320Config())
		tr, err := chip.HeatCool(vf, 40, 80)
		if err != nil {
			t.Fatal(err)
		}
		idle[vf] = tr
	}
	want, err := trainSlim(idle)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("SlimModels differs from the models of a fresh heat/cool chip per state")
	}
}
