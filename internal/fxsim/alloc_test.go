package fxsim

import (
	"reflect"
	"sync"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// busyChip builds a chip with every core running a thread long enough
// never to finish during an alloc measurement.
func busyChip(t testing.TB) *Chip {
	t.Helper()
	cfg := DefaultFX8320Config()
	cfg.IdealSensor = true
	c := New(cfg)
	b := workload.BenchA()
	long := *b
	long.Instructions = 1e18
	for i := 0; i < cfg.Topology.NumCores(); i++ {
		if err := c.Bind(i, &long, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetAllPStates(arch.VF5); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTickZeroAlloc pins the tick loop's allocation-free guarantee: the
// power breakdown, VF snapshot, and all model coefficients must come
// from chip-owned buffers and caches, busy or idle.
func TestTickZeroAlloc(t *testing.T) {
	t.Run("busy", func(t *testing.T) {
		c := busyChip(t)
		if n := testing.AllocsPerRun(200, func() { c.TickN(1) }); n != 0 {
			t.Errorf("busy tick allocates %.1f times per call, want 0", n)
		}
	})
	t.Run("idle", func(t *testing.T) {
		cfg := DefaultFX8320Config()
		cfg.IdealSensor = true
		c := New(cfg)
		if n := testing.AllocsPerRun(200, func() { c.TickN(1) }); n != 0 {
			t.Errorf("idle tick allocates %.1f times per call, want 0", n)
		}
	})
	t.Run("gated", func(t *testing.T) {
		cfg := DefaultFX8320Config()
		cfg.IdealSensor = true
		cfg.PowerGating = true
		c := New(cfg)
		if n := testing.AllocsPerRun(200, func() { c.TickN(1) }); n != 0 {
			t.Errorf("gated tick allocates %.1f times per call, want 0", n)
		}
	})
}

// TestReadIntervalAllocs pins the interval-collection allocation budget
// of a zero record: exactly one exact-capacity allocation per handed-out
// slice (PerCoreVF, Counters, Busy, TrueCoreDynW) and nothing from
// append growth. A retained record must own its slices — the daemon
// keeps intervals in its history ring long after the chip has moved on
// — so these four cannot be pooled away; the former append-growth path
// cost 10 allocs and ~1.6 KB per interval.
func TestReadIntervalAllocs(t *testing.T) {
	c := busyChip(t)
	n := testing.AllocsPerRun(100, func() {
		c.TickN(arch.DecisionIntervalMS)
		var iv trace.Interval
		c.ReadIntervalInto(&iv)
	})
	if n != 4 {
		t.Errorf("TickN+ReadIntervalInto on a zero record allocates %.1f times per interval, want exactly 4", n)
	}
}

// TestReadIntervalIntoAllocs pins the reuse path: handing the same
// record back every interval reuses its four slices, so the steady
// state allocates nothing at all — the contract the fleet engine's
// per-node scratch depends on.
func TestReadIntervalIntoAllocs(t *testing.T) {
	c := busyChip(t)
	var iv trace.Interval
	c.TickN(arch.DecisionIntervalMS)
	c.ReadIntervalInto(&iv) // warm-up: first call sizes the slices
	n := testing.AllocsPerRun(100, func() {
		c.TickN(arch.DecisionIntervalMS)
		c.ReadIntervalInto(&iv)
	})
	if n != 0 {
		t.Errorf("TickN+ReadIntervalInto allocates %.1f times per interval on reuse, want 0", n)
	}
}

// TestReadIntervalIntoMatchesReadInterval pins bit-exact equivalence of
// a reused record and a fresh zero one (read from a parallel chip with
// the same seed and workload) across a run with VF changes and idle
// cores.
func TestReadIntervalIntoMatchesReadInterval(t *testing.T) {
	a := busyChip(t)
	b := busyChip(t)
	var reused trace.Interval
	states := []arch.VFState{arch.VF5, arch.VF2, arch.VF4}
	for k := 0; k < 6; k++ {
		s := states[k%len(states)]
		if err := a.SetAllPStates(s); err != nil {
			t.Fatal(err)
		}
		if err := b.SetAllPStates(s); err != nil {
			t.Fatal(err)
		}
		if k == 4 {
			a.Unbind(3)
			b.Unbind(3)
		}
		a.TickN(arch.DecisionIntervalMS)
		b.TickN(arch.DecisionIntervalMS)
		var want trace.Interval
		a.ReadIntervalInto(&want)
		b.ReadIntervalInto(&reused)
		if want.Fold(trace.FingerprintSeed) != reused.Fold(trace.FingerprintSeed) {
			t.Fatalf("interval %d: a reused record diverges from a fresh one", k)
		}
	}
}

// TestConfigNBNotShared guards the NB deep copy in New: two chips built
// from the same Config value must not share mutable NB state, and
// SetNBPoint must never write through to the caller's Config. Run under
// -race this doubles as a concurrent-aliasing regression test — before
// the deep copy, one chip's SetNBPoint raced another chip's tick loop.
func TestConfigNBNotShared(t *testing.T) {
	cfg := DefaultFX8320Config()
	origFreq := cfg.NB.FreqGHz
	origVolt := cfg.NB.VoltageV

	a := New(cfg)
	b := New(cfg)
	bindOne := func(c *Chip) {
		bench := *workload.BenchA()
		bench.Instructions = 1e18
		if err := c.Bind(0, &bench, false); err != nil {
			t.Fatal(err)
		}
	}
	bindOne(a)
	bindOne(b)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a.TickN(400)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			b.SetNBPoint(arch.VFPoint{Voltage: 1.0875, Freq: 1.8})
			b.TickN(8)
			b.SetNBPoint(arch.VFPoint{Voltage: 1.175, Freq: 2.2})
		}
	}()
	wg.Wait()

	if cfg.NB.FreqGHz != origFreq || cfg.NB.VoltageV != origVolt {
		t.Errorf("caller's Config.NB mutated to (%.4f V, %.2f GHz), want (%.4f V, %.2f GHz)",
			cfg.NB.VoltageV, cfg.NB.FreqGHz, origVolt, origFreq)
	}
	if a.cfg.NB == b.cfg.NB || a.cfg.NB == cfg.NB {
		t.Error("chips share an NB instance with each other or the caller")
	}
}

// TestCounterFilesFeedOneModel pins the one-counter-model rule: once
// counter files are attached, a core's events feed its counter file
// and not its mux, and ReadIntervalInto returns no counters — while every
// power, thermal and VF field stays equal to a chip without
// counter files.
func TestCounterFilesFeedOneModel(t *testing.T) {
	files, plain := busyChip(t), busyChip(t)
	files.EnableCounterFiles()
	if err := files.CounterFile(0).Program(0, arch.Info(arch.RetiredInstructions).Code); err != nil {
		t.Fatal(err)
	}
	var reuse trace.Interval
	for n := 0; n < 3; n++ {
		files.TickN(arch.DecisionIntervalMS)
		plain.TickN(arch.DecisionIntervalMS)
		if files.mux[0].ReadInterval(1) != (arch.EventVec{}) {
			t.Fatal("a chip with counter files still feeds its mux")
		}
		files.ReadIntervalInto(&reuse)
		var want trace.Interval
		plain.ReadIntervalInto(&want)
		if len(reuse.Counters) != 0 || len(want.Counters) != len(want.Busy) {
			t.Fatalf("interval %d: %d counter vectors with counter files, %d without", n, len(reuse.Counters), len(want.Counters))
		}
		reuse.Counters = want.Counters
		if !reflect.DeepEqual(reuse, want) {
			t.Errorf("interval %d: counter files perturbed the simulation:\n%+v\n%+v", n, reuse, want)
		}
	}
	if v, _ := files.CounterFile(0).Read(0); v == 0 {
		t.Error("programmed counter file did not count")
	}
}
