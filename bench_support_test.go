package main

import (
	"testing"

	"ppep/internal/arch"
	"ppep/internal/daemon"
	"ppep/internal/experiments"
	"ppep/internal/fxsim"
	"ppep/internal/serve"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// benchmarkTick drives the chip simulator's tick loop with a full
// complement of busy cores.
func benchmarkTick(b *testing.B) {
	cfg := fxsim.DefaultFX8320Config()
	cfg.IdealSensor = true
	chip := fxsim.New(cfg)
	run := workload.Run{Name: "tick", Suite: "micro",
		Members: []workload.Member{{Bench: workload.BenchA(), Threads: 8}}}
	if _, err := chip.PlaceRun(run, fxsim.PlaceCompact, true); err != nil {
		b.Fatal(err)
	}
	if err := chip.SetAllPStates(arch.VF5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.TickN(1)
	}
}

// benchmarkTickNWith drives the simulator through whole 200-tick decision
// intervals via TickN, the granularity Collect and the PG
// sweeps actually use, with eight threads of the given benchmark.
func benchmarkTickNWith(b *testing.B, bench *workload.Benchmark) {
	cfg := fxsim.DefaultFX8320Config()
	cfg.IdealSensor = true
	chip := fxsim.New(cfg)
	run := workload.Run{Name: "tickn", Suite: "micro",
		Members: []workload.Member{{Bench: bench, Threads: 8}}}
	if _, err := chip.PlaceRun(run, fxsim.PlaceCompact, true); err != nil {
		b.Fatal(err)
	}
	if err := chip.SetAllPStates(arch.VF5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.TickN(arch.DecisionIntervalMS)
		chip.ReadIntervalInto(new(trace.Interval))
	}
}

// benchmarkServeDaemon assembles the service-mode stack on a busy chip:
// a history-bounded daemon with the HTTP observability layer wired
// through OnInterval, exactly as `ppepd -serve` runs it.
func benchmarkServeDaemon(b *testing.B, c *experiments.Campaign) (*daemon.Daemon, *serve.Server) {
	b.Helper()
	cfg := fxsim.DefaultFX8320Config()
	cfg.IdealSensor = true
	chip := fxsim.New(cfg)
	chip.SetTempK(318)
	long := *workload.BenchA()
	long.Instructions = 1e18
	run := workload.Run{Name: "serve", Suite: "micro",
		Members: []workload.Member{{Bench: &long, Threads: 8}}}
	if _, err := chip.PlaceRun(run, fxsim.PlaceCompact, true); err != nil {
		b.Fatal(err)
	}
	if err := chip.SetAllPStates(arch.VF5); err != nil {
		b.Fatal(err)
	}
	d, err := daemon.AttachOpts(chip, c.Models, nil, daemon.Options{HistoryCap: 64})
	if err != nil {
		b.Fatal(err)
	}
	return d, serve.New(d, serve.Options{})
}

// TestBenchHarnessSmoke keeps the benchmark harness correct under plain
// `go test`: it runs the cheapest benchmark body once.
func TestBenchHarnessSmoke(t *testing.T) {
	result := testing.Benchmark(func(b *testing.B) {
		benchmarkTick(b)
	})
	if result.N <= 0 {
		t.Error("tick benchmark did not run")
	}
}

// benchmarkRates builds a busy core's event-rate vector.
func benchmarkRates() arch.EventVec {
	var ev arch.EventVec
	inst := 3e9
	ev.Set(arch.RetiredInstructions, inst)
	ev.Set(arch.RetiredUOP, 1.3*inst)
	ev.Set(arch.FPUPipeAssignment, 0.4*inst)
	ev.Set(arch.InstructionCacheFetches, 0.25*inst)
	ev.Set(arch.DataCacheAccesses, 0.45*inst)
	ev.Set(arch.RequestToL2Cache, 0.02*inst)
	ev.Set(arch.RetiredBranches, 0.15*inst)
	ev.Set(arch.RetiredMispredBranches, 0.004*inst)
	ev.Set(arch.L2CacheMisses, 0.008*inst)
	ev.Set(arch.DispatchStalls, 0.5*inst)
	ev.Set(arch.CPUClocksNotHalted, 1.2*inst)
	ev.Set(arch.MABWaitCycles, 0.3*inst)
	return ev
}
