package eventpred_test

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/core/eventpred"
)

// Event rates measured at one frequency predict the rates at another:
// per-instruction counts carry over (Observation 1) and dispatch stalls
// follow the CPI prediction (Observation 2).
func ExamplePredictRates() {
	var ev arch.EventVec
	instRate := 2e9 // instructions/second at 3.5 GHz
	ev.Set(arch.RetiredInstructions, instRate)
	ev.Set(arch.RetiredUOP, 1.3*instRate)
	ev.Set(arch.CPUClocksNotHalted, 1.75*instRate) // CPI 1.75
	ev.Set(arch.MABWaitCycles, 0.7*instRate)       // MCPI 0.7
	ev.Set(arch.DispatchStalls, 0.9*instRate)

	var pred arch.EventVec
	ok := eventpred.PredictRates(&ev, 3.5, 1.75, &pred)
	inst := pred.Get(arch.RetiredInstructions)
	fmt.Println(ok)
	// Memory cycles halve at half the clock: CPI 1.05+0.35 = 1.40.
	fmt.Printf("CPI at 1.75 GHz: %.2f\n", pred.Get(arch.CPUClocksNotHalted)/inst)
	// Per-instruction uops are invariant (Observation 1).
	fmt.Printf("uops/inst: %.2f\n", pred.Get(arch.RetiredUOP)/inst)
	// The CPI−DS/inst gap is invariant (Observation 2): 1.75−0.90 = 0.85.
	fmt.Printf("gap: %.2f\n", pred.Get(arch.CPUClocksNotHalted)/inst-pred.Get(arch.DispatchStalls)/inst)
	// Output:
	// true
	// CPI at 1.75 GHz: 1.40
	// uops/inst: 1.30
	// gap: 0.85
}
