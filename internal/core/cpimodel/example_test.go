package cpimodel_test

import (
	"fmt"

	"ppep/internal/core/cpimodel"
)

// The heart of the performance model: one interval's CPI and MCPI at the
// current frequency predict the CPI at any other frequency (Equation 1).
func ExampleSample_Predict() {
	// Measured at 3.5 GHz: CPI 1.0, of which 0.4 cycles/inst were spent
	// waiting on leading loads (MAB wait cycles).
	s := cpimodel.Sample{CPI: 1.0, MCPI: 0.4, FreqGHz: 3.5}
	// At 1.4 GHz, the memory time costs proportionally fewer cycles.
	fmt.Printf("CPI(1.4 GHz) = %.2f\n", s.Predict(1.4))
	fmt.Printf("CPI(3.5 GHz) = %.2f\n", s.Predict(3.5))
	// Output:
	// CPI(1.4 GHz) = 0.76
	// CPI(3.5 GHz) = 1.00
}
