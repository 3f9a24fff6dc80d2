package workload

import "sync"

var (
	benchAOnce  sync.Once
	benchA      *Benchmark
	steadyOnce  sync.Once
	benchSteady *Benchmark
)

// BenchA returns the paper's Section IV-D microbenchmark: an L1-resident
// data set, no dynamic NB accesses, and a perfectly steady phase. Its
// performance and dynamic power are identical across concurrently running
// instances, which is what makes the power-gating decomposition of
// Figure 4 possible.
func BenchA() *Benchmark {
	benchAOnce.Do(func() {
		benchA = &Benchmark{
			Name:         "bench_A",
			Suite:        "micro",
			Class:        CPUBound,
			Instructions: 1e12, // effectively endless; runs are time-bounded
			Phases: []Phase{{
				Name:    "steady",
				Weight:  1,
				BaseCPI: 0.50,
				PerInst: Rates{
					Uops:     1.2,
					FPU:      0.10,
					ICFetch:  0.25,
					DCAccess: 0.45,
					L2Req:    0.001, // L1-resident: essentially no L2 traffic
					Branch:   0.12,
					Mispred:  0.0006,
					L2Miss:   0, // no dynamic NB accesses
				},
				L3MissRatio: 0,
				MLP:         1,
				Noise:       0.001,
			}},
		}
	})
	return benchA
}

// BenchSteady returns BenchA with the rate jitter turned off entirely: a
// single perfectly phase-stable, DRAM-free workload: every tick between
// chip events is identical. It is the phase-stable case the tick
// benchmarks report.
func BenchSteady() *Benchmark {
	steadyOnce.Do(func() {
		b := *BenchA()
		b.Name = "bench_steady"
		b.Phases = append([]Phase(nil), b.Phases...)
		b.Phases[0].Noise = 0
		benchSteady = &b
	})
	return benchSteady
}
