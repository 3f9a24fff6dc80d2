package workload_test

import (
	"math"
	"strings"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/mem"
	"ppep/internal/uarch"
	"ppep/internal/workload"
)

// FuzzLoadProfile runs every profile LoadProfile accepts through a few
// hundred ticks on a simulated core at the FX-8320's top and bottom
// clocks, under the slowest memory the NB model gives and a busy L2
// sibling. Every TickResult field must be finite and non-negative: a
// profile that validates must never put a NaN or an infinity into the
// counters or the power model.
func FuzzLoadProfile(f *testing.F) {
	for _, b := range append(workload.SPECBenchmarks()[:3], workload.BenchA(), workload.BenchSteady()) {
		body, err := workload.EncodeProfile(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	// The extremes Validate accepts: every rate and BaseCPI at its bound,
	// σ = 1, |ε| near 1, the longest and a vanishing run, and loops so
	// short that every tick crosses phases.
	f.Add(`{"name":"x","instructions":1e308,"freq_sens":[0.99,-0.99,0.99,-0.99,0.99,-0.99,0.99,-0.99],"phases":[{"weight":1,"base_cpi":1000,"mlp":1,"l3_miss_ratio":1,"noise":1,"uops_per_inst":1000,"fpu_per_inst":1000,"ic_per_inst":1000,"dc_per_inst":1000,"l2req_per_inst":1000,"branch_per_inst":1000,"mispred_per_inst":1000,"l2miss_per_inst":1000,"prefetch_per_inst":1000,"tlbwalk_per_inst":1000}]}`)
	f.Add(`{"name":"x","instructions":1e-300,"phases":[{"weight":1,"base_cpi":0.25,"mlp":1,"uops_per_inst":1,"noise":1}]}`)
	f.Add(`{"name":"x","instructions":1e9,"loops":2000000000,"phases":[{"weight":0.5,"base_cpi":0.25,"mlp":1,"uops_per_inst":1,"noise":1},{"weight":0.5,"base_cpi":1000,"mlp":1,"uops_per_inst":1000}]}`)
	// Rejected: exp(800·g) overflows to +Inf.
	f.Add(`{"name":"x","instructions":1,"phases":[{"weight":1,"base_cpi":0.5,"mlp":1,"uops_per_inst":1.2,"noise":800}]}`)

	nb := mem.DefaultFX8320NB()
	lat := nb.Snapshot(nb.MaxUtil)
	lat.L2ContentionCycles = mem.L2SiblingPenaltyCycles
	vf := arch.FX8320VFTable
	fTop := float64(vf.Point(vf.Top()).Freq)
	f.Fuzz(func(t *testing.T, body string) {
		b, err := workload.LoadProfile(strings.NewReader(body))
		if err != nil {
			return
		}
		for _, s := range []arch.VFState{vf.Top(), vf.Bottom()} {
			fGHz := float64(vf.Point(s).Freq)
			var c uarch.Core
			c.Reset(b, fTop)
			var r uarch.TickResult
			for i := 0; i < 300 && !r.Finished; i++ {
				c.Step(fGHz, 0.001, &lat, &r)
				fields := append([]float64{r.Instructions, r.Cycles, r.CPI, r.Prefetches, r.TLBWalks,
					r.EPIScale, r.L3Accesses, r.DRAMAccesses}, r.Events[:]...)
				for j, v := range fields {
					if !(v >= 0) || math.IsInf(v, 0) {
						t.Fatalf("%v tick %d: field %d is %v in %+v", s, i, j, v, r)
					}
				}
			}
		}
	})
}
