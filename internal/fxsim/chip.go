// Package fxsim is the simulated evaluation platform: an AMD FX-8320-class
// chip with compute units, per-CU P-states, CU-level power gating, a
// shared north bridge, package thermals, the Hall-effect power sensor, and
// per-core multiplexed performance counters. It binds workload profiles to
// cores, advances in 1 ms ticks, and emits the 200 ms measurement
// intervals (trace.Interval) the PPEP models consume — the same
// observables the paper's testbed exposes.
package fxsim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ppep/internal/arch"
	"ppep/internal/mem"
	"ppep/internal/pmc"
	"ppep/internal/powertruth"
	"ppep/internal/sensor"
	"ppep/internal/thermal"
	"ppep/internal/trace"
	"ppep/internal/uarch"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// TickS is the simulation tick: 1 ms, twenty ticks per sensor sample
// window would be wrong — it is 20 ticks per mux window and one sensor
// sample every PowerSamplePeriodMS ticks.
const TickS = 0.001

// Config selects the platform and its measurement behaviour.
type Config struct {
	Topology arch.Topology
	Power    *powertruth.Config
	NB       *mem.NB
	// PowerGating is the BIOS PG switch (Section IV-D): when true, a CU
	// with both cores idle is gated, and the NB gates when all CUs are.
	PowerGating bool
	// PerCUPlanes allows per-CU voltage (the Section V-B assumption).
	// Without it, all CUs share the voltage of the highest P-state.
	PerCUPlanes bool
	// MuxDisabled switches the counter multiplexer into oracle mode.
	MuxDisabled bool
	// BoostEnabled turns on the hardware-controlled boost states the
	// paper disables (Section II): a CU at the top P-state boosts when
	// few CUs are busy and the package is cool. Boost is invisible to
	// software — exactly why the paper turns it off for measurements.
	BoostEnabled bool
	// BoostPoint is the boosted operating point (default 3.9 GHz,
	// 1.40 V when zero).
	BoostPoint arch.VFPoint
	// BoostMaxBusyCUs is the busy-CU ceiling for boosting (default 2).
	BoostMaxBusyCUs int
	// BoostTempMaxK is the thermal ceiling for boosting (default 331 K).
	BoostTempMaxK units.Kelvin
	// SensorSeed seeds the power sensor's noise.
	SensorSeed int64
	// IdealSensor replaces the noisy sensor with a perfect one.
	IdealSensor bool
}

// DefaultFX8320Config returns the paper's primary platform with power
// gating disabled, the Section IV-A..C configuration.
func DefaultFX8320Config() Config {
	return Config{
		Topology:   arch.FX8320,
		Power:      powertruth.DefaultFX8320(),
		NB:         mem.DefaultFX8320NB(),
		SensorSeed: 42,
	}
}

// DefaultPhenomIIConfig returns the secondary validation platform.
func DefaultPhenomIIConfig() Config {
	return Config{
		Topology:   arch.PhenomII,
		Power:      powertruth.DefaultPhenomII(),
		NB:         mem.DefaultFX8320NB(),
		SensorSeed: 43,
	}
}

// Chip is the live simulated processor.
//
// Per-core runtime state is struct-of-arrays: the tick loop sweeps
// contiguous parallel slices (threads, mux, bound flags) instead of
// chasing per-core slot pointers, so the hot sweep touches a handful of
// cache lines laid out in iteration order.
type Chip struct {
	cfg Config
	// threads holds every core's execution context as a value slot;
	// bound[i] reports whether a thread is bound there (a bound thread
	// may have finished — Busy distinguishes). benches/restart carry the
	// re-bind behaviour for time-bounded experiments like power capping.
	threads []uarch.Core
	bound   []bool
	restart []bool
	benches []*workload.Benchmark
	// mux is the per-core multiplexed counter file, again as contiguous
	// value slots. counters[i], when non-nil, is the register-level
	// counter file the MSR device exposes (EnableCounterFiles).
	mux      []pmc.Mux
	counters []*pmc.CounterFile
	// counterFiles is set once EnableCounterFiles has run. From then on
	// a core's events feed its counter file only: the mux is no longer
	// fed, and ReadIntervalInto returns no counters.
	counterFiles bool

	pstates []arch.VFState // per CU
	nbPoint arch.VFPoint

	therm  *thermal.Model
	sensor *sensor.PowerSensor

	timeS    float64
	tickIdx  int64
	lastUtil float64 // DRAM utilization of the previous tick

	// Interval accumulation.
	sensorSum   float64
	sensorN     int
	trueSum     float64
	trueCoreSum float64
	trueNBSum   float64
	coreDynSum  []units.Watts
	tickCount   int
	intervalVF  []arch.VFState // reused buffer; ReadIntervalInto copies it out

	// Tick-loop caches (see the "simulator performance" section of
	// DESIGN.md). The busy counters are maintained incrementally by
	// Bind/Unbind and thread completion; the VF-derived values are
	// refreshed by SetPState/SetNBPoint. Every cached value is a pure
	// function of its key, so a fixed SensorSeed produces bit-identical
	// interval sequences (golden_test.go); the leakage temperature factor
	// and the folded core-power coefficients round differently from a
	// per-tick evaluation, by the amounts drift_test.go bounds.
	fTopGHz     units.GigaHertz // top-state core frequency
	cuBusyCores []int           // busy cores per CU
	busyCUs     int             // CUs with ≥1 busy core
	topBusyCUs  int             // busy CUs sitting at the top P-state
	cuPoints    []arch.VFPoint  // per-CU VF point (P-state table lookup)
	sharedV     units.Volts     // shared-rail voltage (highest requested state)
	nbLat       mem.LatencyParams
	nbDyn       powertruth.NBDynCoeffs
	nbLeakVolt  float64 // NB leakage voltage factor
	// leakTemp is the leakage temperature factor, evaluated at the start
	// of every PowerSamplePeriodMS sensor window and whenever SetTempK
	// moves the temperature: over one 20 ms window the package warms by
	// about a millikelvin, which moves leakage by about 1e-5 relative.
	leakTemp float64
	// cuOp is every CU's operating point for the current tick and its
	// power-model coefficients: refreshCUOps derives it at the top of
	// the tick and again whenever a thread finishes mid-sweep.
	// cuOpStale marks it out of date. Without boost a CU's point moves
	// only through SetPState, which sets the mark; with boost the
	// temperature and the busy counts move it too, so a chip with boost
	// enabled re-derives it every tick.
	cuOp        []cuOpCache
	cuOpStale   bool
	scratchDyn  []units.Watts // Breakdown.CoreDynW backing store
	scratchLeak []units.Watts // Breakdown.CULeakW backing store
	// The tick's scratch: every busy core's Step writes stepRes through a
	// pointer, and breakdown (over scratchDyn/scratchLeak) is refilled
	// every tick, so the sweep neither copies nor zeroes either.
	stepRes   uarch.TickResult
	breakdown powertruth.Breakdown

	// ticks counts every tick run. It is atomic because EngineStats is
	// read from HTTP handlers while the sampling goroutine ticks the chip.
	ticks atomic.Uint64
}

// EngineStats is a plain-value snapshot of how many ticks the chip ran.
//
// Deprecated: the chip has a single tick path, so FastTicks is always 0
// and ReferenceTicks is the tick count. The type remains for benchmark
// code that still reads both counters.
type EngineStats struct {
	FastTicks      uint64
	ReferenceTicks uint64
}

// EngineStats reports the number of ticks the chip has run. Safe to call
// concurrently with a goroutine ticking the chip.
//
// Deprecated: there is a single tick path, so the snapshot only carries
// the tick count (as ReferenceTicks).
func (c *Chip) EngineStats() EngineStats {
	return EngineStats{ReferenceTicks: c.ticks.Load()}
}

// cuOpCache is one CU's operating point (voltage, frequency) and the
// power-model coefficients memoised for it. Boost can flip a CU's
// operating point from one tick to the next, so the coefficients are
// keyed by value rather than invalidated explicitly.
type cuOpCache struct {
	v        units.Volts
	f        units.GigaHertz
	dyn      powertruth.CoreDynCoeffs
	haltedW  units.Watts // dynamic power of a halted, ungated core
	leakVolt float64
	// evW[k] is the switching power, in watts before the EPI scale, of
	// one event of kind k per tick at this point: E1..E8 at their
	// EventNJ, dispatch stalls (E9) at StallNJ, each times 1e-9·Scale/TickS.
	// pfW and tlbW are the same for a prefetch and a TLB walk.
	evW       [9]float64
	pfW, tlbW float64
	ok        bool
}

// New builds a chip at the top VF state, thermally at ambient.
func New(cfg Config) *Chip {
	// The NB is mutable chip state (SetNBPoint rewrites its clock and
	// voltage), so deep-copy it: two chips built from one Config value
	// must never share it.
	nb := *cfg.NB
	cfg.NB = &nb
	nCores := cfg.Topology.NumCores()
	c := &Chip{
		cfg:         cfg,
		threads:     make([]uarch.Core, nCores),
		bound:       make([]bool, nCores),
		restart:     make([]bool, nCores),
		benches:     make([]*workload.Benchmark, nCores),
		mux:         make([]pmc.Mux, nCores),
		counters:    make([]*pmc.CounterFile, nCores),
		pstates:     make([]arch.VFState, cfg.Topology.NumCUs),
		nbPoint:     arch.VFPoint{Voltage: units.Volts(cfg.NB.VoltageV), Freq: units.GigaHertz(cfg.NB.FreqGHz)},
		therm:       thermal.DefaultFX8320(),
		coreDynSum:  make([]units.Watts, nCores),
		intervalVF:  make([]arch.VFState, nCores),
		cuBusyCores: make([]int, cfg.Topology.NumCUs),
		cuPoints:    make([]arch.VFPoint, cfg.Topology.NumCUs),
		cuOp:        make([]cuOpCache, cfg.Topology.NumCUs),
		scratchDyn:  make([]units.Watts, nCores),
		scratchLeak: make([]units.Watts, cfg.Topology.NumCUs),
	}
	c.breakdown.CoreDynW, c.breakdown.CULeakW = c.scratchDyn, c.scratchLeak
	c.sensor = newSensor(cfg)
	for i := range c.mux {
		c.mux[i].Disabled = cfg.MuxDisabled
	}
	top := cfg.Topology.VF.Top()
	topPoint := cfg.Topology.VF.Point(top)
	for cu := range c.pstates {
		c.pstates[cu] = top
		c.cuPoints[cu] = topPoint
	}
	c.fTopGHz = topPoint.Freq
	c.sharedV = topPoint.Voltage
	c.cuOpStale = true
	c.refreshNBCaches()
	c.refreshLeakTemp()
	c.snapshotVF()
	return c
}

// Fork returns an independent deep copy of the chip with a fresh power
// sensor for sensorSeed (or the ideal sensor when the config asks for
// one). The new sensor is advanced past every sample the chip has taken,
// so the fork reads exactly what a chip built with that seed and driven
// through the same ticks would read from here on: the sensor feeds
// nothing back into the physics. Fork only reads the chip, so several
// goroutines may fork one chip concurrently while none of them ticks it.
func (c *Chip) Fork(sensorSeed int64) *Chip {
	cfg := c.cfg
	nb := *c.cfg.NB
	cfg.NB = &nb
	cfg.SensorSeed = sensorSeed
	therm := *c.therm
	f := &Chip{
		cfg:          cfg,
		threads:      slices.Clone(c.threads),
		bound:        slices.Clone(c.bound),
		restart:      slices.Clone(c.restart),
		benches:      slices.Clone(c.benches),
		mux:          slices.Clone(c.mux),
		counters:     make([]*pmc.CounterFile, len(c.counters)),
		counterFiles: c.counterFiles,
		pstates:      slices.Clone(c.pstates),
		nbPoint:      c.nbPoint,
		therm:        &therm,
		timeS:        c.timeS,
		tickIdx:      c.tickIdx,
		lastUtil:     c.lastUtil,
		sensorSum:    c.sensorSum,
		sensorN:      c.sensorN,
		trueSum:      c.trueSum,
		trueCoreSum:  c.trueCoreSum,
		trueNBSum:    c.trueNBSum,
		coreDynSum:   slices.Clone(c.coreDynSum),
		tickCount:    c.tickCount,
		intervalVF:   slices.Clone(c.intervalVF),
		fTopGHz:      c.fTopGHz,
		cuBusyCores:  slices.Clone(c.cuBusyCores),
		busyCUs:      c.busyCUs,
		topBusyCUs:   c.topBusyCUs,
		cuPoints:     slices.Clone(c.cuPoints),
		sharedV:      c.sharedV,
		nbLat:        c.nbLat,
		nbDyn:        c.nbDyn,
		nbLeakVolt:   c.nbLeakVolt,
		leakTemp:     c.leakTemp,
		cuOp:         slices.Clone(c.cuOp),
		cuOpStale:    c.cuOpStale,
		scratchDyn:   slices.Clone(c.scratchDyn),
		scratchLeak:  slices.Clone(c.scratchLeak),
		stepRes:      c.stepRes,
		breakdown:    c.breakdown,
	}
	for i, cf := range c.counters {
		if cf != nil {
			cp := *cf
			f.counters[i] = &cp
		}
	}
	f.breakdown.CoreDynW, f.breakdown.CULeakW = f.scratchDyn, f.scratchLeak
	f.sensor = newSensor(cfg)
	f.sensor.Skip(c.tickIdx / int64(arch.PowerSamplePeriodMS))
	f.ticks.Store(c.ticks.Load())
	return f
}

// newSensor returns the power sensor a config asks for: the ideal one,
// or the default noisy one seeded with SensorSeed.
func newSensor(cfg Config) *sensor.PowerSensor {
	if cfg.IdealSensor {
		return sensor.Ideal()
	}
	return sensor.Default(cfg.SensorSeed)
}

// refreshNBCaches re-derives every NB-operating-point-dependent cache.
func (c *Chip) refreshNBCaches() {
	c.nbLat = c.cfg.NB.LatencyParams()
	c.nbDyn = c.cfg.Power.NBDynCoeffsAt(c.nbPoint.Voltage, c.nbPoint.Freq)
	c.nbLeakVolt = c.cfg.Power.NBLeakVoltScale(c.nbPoint.Voltage)
}

// Topology returns the platform topology.
func (c *Chip) Topology() arch.Topology { return c.cfg.Topology }

// VFTable returns the platform's VF table.
func (c *Chip) VFTable() arch.VFTable { return c.cfg.Topology.VF }

// TimeS returns the current simulation time.
func (c *Chip) TimeS() float64 { return c.timeS }

// TempK returns the thermal diode reading (millikelvin quantization, as
// the hwmon sysfs path reports).
func (c *Chip) TempK() units.Kelvin {
	return units.Kelvin(float64(int64(c.therm.TempK()*1000)) / 1000)
}

// SetTempK forces the package temperature (experiment setup).
func (c *Chip) SetTempK(t units.Kelvin) {
	c.therm.SetTempK(t)
	c.refreshLeakTemp()
}

// SetPState requests a P-state for one CU.
func (c *Chip) SetPState(cu int, s arch.VFState) error {
	if cu < 0 || cu >= len(c.pstates) {
		return fmt.Errorf("fxsim: CU %d out of range", cu)
	}
	if !c.cfg.Topology.VF.Contains(s) {
		return fmt.Errorf("fxsim: %v not in VF table", s)
	}
	old := c.pstates[cu]
	if old == s {
		return nil
	}
	if top := c.cfg.Topology.VF.Top(); c.cuBusyCores[cu] > 0 {
		if old == top {
			c.topBusyCUs--
		}
		if s == top {
			c.topBusyCUs++
		}
	}
	c.pstates[cu] = s
	c.cuPoints[cu] = c.cfg.Topology.VF.Point(s)
	c.refreshSharedRail()
	c.cuOpStale = true
	return nil
}

// refreshSharedRail re-derives the shared-rail voltage: the voltage of
// the highest requested P-state.
//
//ppep:inline
func (c *Chip) refreshSharedRail() {
	top := c.pstates[0]
	for _, s := range c.pstates[1:] {
		if s > top {
			top = s
		}
	}
	c.sharedV = c.cfg.Topology.VF.Point(top).Voltage
}

// markBusy records a core's idle→busy transition in the CU busy counters.
//
//ppep:inline
func (c *Chip) markBusy(core int) {
	cu := c.cuOf(core)
	c.cuBusyCores[cu]++
	if c.cuBusyCores[cu] == 1 {
		c.busyCUs++
		if c.pstates[cu] == c.cfg.Topology.VF.Top() {
			c.topBusyCUs++
		}
	}
}

// markIdle records a core's busy→idle transition (unbind or completion).
//
//ppep:inline
func (c *Chip) markIdle(core int) {
	cu := c.cuOf(core)
	c.cuBusyCores[cu]--
	if c.cuBusyCores[cu] == 0 {
		c.busyCUs--
		if c.pstates[cu] == c.cfg.Topology.VF.Top() {
			c.topBusyCUs--
		}
	}
}

// SetAllPStates sets every CU to the same P-state.
func (c *Chip) SetAllPStates(s arch.VFState) error {
	for cu := range c.pstates {
		if err := c.SetPState(cu, s); err != nil {
			return err
		}
	}
	return nil
}

// PState returns a CU's current P-state.
func (c *Chip) PState(cu int) arch.VFState { return c.pstates[cu] }

// SetNBPoint overrides the NB operating point (Section V-C2 what-if).
// The chip owns its NB (deep-copied in New), so this never mutates the
// Config the caller built the chip from.
func (c *Chip) SetNBPoint(p arch.VFPoint) {
	c.nbPoint = p
	c.cfg.NB.FreqGHz = float64(p.Freq)
	c.cfg.NB.VoltageV = float64(p.Voltage)
	c.refreshNBCaches()
}

// boostPoint returns the configured boost operating point.
func (c *Chip) boostPoint() arch.VFPoint {
	if c.cfg.BoostPoint.Freq > 0 {
		return c.cfg.BoostPoint
	}
	return arch.VFPoint{Voltage: 1.40, Freq: 3.9}
}

// boostLimits returns the effective boost ceilings (defaults applied).
func (c *Chip) boostLimits() (maxBusy int, tMaxK units.Kelvin) {
	maxBusy = c.cfg.BoostMaxBusyCUs
	if maxBusy == 0 {
		maxBusy = 2
	}
	tMaxK = c.cfg.BoostTempMaxK
	if tMaxK == 0 {
		tMaxK = 331
	}
	return maxBusy, tMaxK
}

// boostOpen reports whether the chip-wide boost conditions hold this
// tick: boost is enabled, few CUs are busy, and the package is cool. A
// CU then boosts when it also sits at the top P-state with work.
// Software cannot observe or control this — the measurement hazard the
// paper avoids by disabling boost. The busy conditions read the
// incrementally-maintained CU counters, so the check is O(1).
func (c *Chip) boostOpen() bool {
	if !c.cfg.BoostEnabled {
		return false
	}
	maxBusy, tMax := c.boostLimits()
	return c.therm.TempK() < tMax && c.busyCUs <= maxBusy
}

// Bind places a thread of the benchmark on a hardware core (the taskset
// equivalent). restart re-binds on completion.
func (c *Chip) Bind(core int, b *workload.Benchmark, restart bool) error {
	if core < 0 || core >= len(c.threads) {
		return fmt.Errorf("fxsim: core %d out of range", core)
	}
	if c.bound[core] {
		return fmt.Errorf("fxsim: core %d already busy", core)
	}
	c.threads[core].Reset(b, float64(c.fTopGHz))
	c.bound[core] = true
	c.benches[core] = b
	c.restart[core] = restart
	c.markBusy(core)
	return nil
}

// Unbind removes any thread from a core.
func (c *Chip) Unbind(core int) {
	if c.Busy(core) {
		c.markIdle(core)
	}
	c.threads[core] = uarch.Core{}
	c.bound[core] = false
	c.benches[core] = nil
	c.restart[core] = false
}

// UnbindAll idles the whole chip.
func (c *Chip) UnbindAll() {
	for i := range c.threads {
		c.Unbind(i)
	}
}

// Busy reports whether a thread is bound and unfinished on the core.
//
//ppep:inline
func (c *Chip) Busy(core int) bool {
	return c.bound[core] && !c.threads[core].Finished()
}

// AllIdle reports whether no core has active work.
func (c *Chip) AllIdle() bool { return c.busyCUs == 0 }

// cuOf returns the compute unit that owns a core. It is arch.Topology's
// CUOf without the by-value receiver, which copies the whole Topology on
// every call from the tick loop.
//
//ppep:inline
func (c *Chip) cuOf(core int) int { return core / c.cfg.Topology.CoresPerCU }

// cuGated reports whether a CU is power gated this tick.
//
//ppep:inline
func (c *Chip) cuGated(cu int) bool {
	return c.cfg.PowerGating && c.cuBusyCores[cu] == 0
}

// nbGated reports whether the NB is gated (all CUs gated).
//
//ppep:inline
func (c *Chip) nbGated() bool {
	return c.cfg.PowerGating && c.busyCUs == 0
}

// snapshotVF records the per-core VF states for the current interval into
// the chip's reusable buffer (ReadIntervalInto copies it out, so handed-out
// intervals never alias it).
//
//ppep:inline
func (c *Chip) snapshotVF() {
	for i := range c.intervalVF {
		c.intervalVF[i] = c.pstates[c.cuOf(i)]
	}
}

// refreshCUOps derives every CU's operating point for this tick into
// cuOp, with its coefficients. A CU's clock is its P-state's, or the
// boost clock while it boosts. Its voltage is its own point's with per-CU
// planes, otherwise the shared rail at the highest requested state; a
// boosting CU pulls its plane, or the shared rail, up to the boost
// voltage. Within a tick the point moves only when a finishing thread
// changes the busy counts boost reads, so the sweep calls this again
// after markIdle.
func (c *Chip) refreshCUOps() {
	c.cuOpStale = false
	boost := c.boostOpen()
	bp := c.boostPoint()
	sharedV := c.sharedV
	if boost && c.topBusyCUs > 0 && bp.Voltage > sharedV {
		sharedV = bp.Voltage
	}
	top := c.cfg.Topology.VF.Top()
	for cu := range c.cuOp {
		p := c.cuPoints[cu]
		v, f := sharedV, p.Freq
		if c.cfg.PerCUPlanes {
			v = p.Voltage
		}
		if boost && c.pstates[cu] == top && c.cuBusyCores[cu] > 0 {
			f = bp.Freq
			if c.cfg.PerCUPlanes {
				v = bp.Voltage
			}
		}
		c.cuCoeffs(cu, v, f)
	}
}

// cuCoeffs returns the memoised power-model coefficients for a CU at the
// given operating point, refreshing the entry when the point moved
// (P-state change, rail change, or boost entry/exit). The memo is keyed
// by value because boost can flip a CU's point between consecutive ticks
// without any Set* call.
func (c *Chip) cuCoeffs(cu int, v units.Volts, f units.GigaHertz) *cuOpCache {
	m := &c.cuOp[cu]
	if !m.ok || m.v != v || m.f != f {
		m.v, m.f = v, f
		m.dyn = c.cfg.Power.CoreDynCoeffsAt(v, f)
		m.haltedW = c.cfg.Power.CoreDynamicWWith(m.dyn, &powertruth.Activity{Halted: true})
		m.leakVolt = c.cfg.Power.CULeakVoltScale(v)
		p := c.cfg.Power
		perEvent := 1e-9 * m.dyn.Scale / TickS
		for k, nj := range p.EventNJ {
			m.evW[k] = float64(nj) * perEvent
		}
		m.evW[8] = float64(p.StallNJ) * perEvent
		m.pfW = float64(p.PrefetchNJ) * perEvent
		m.tlbW = float64(p.TLBWalkNJ) * perEvent
		m.ok = true
	}
	return m
}

// coreDynW is powertruth's core dynamic power of one busy core's tick at
// this operating point, computed from the tick's event counts with the
// per-event coefficients folded: the same sum as CoreDynamicWWith over
// the per-second rates, to rounding.
//
//ppep:inline
func (m *cuOpCache) coreDynW(r *uarch.TickResult) units.Watts {
	ev := &r.Events
	var w float64
	for k := 0; k < 8; k++ {
		w += m.evW[k] * ev[k]
	}
	// Indexed, not Get: Get's by-value receiver copies the whole vector.
	w += m.evW[8] * ev[int(arch.DispatchStalls)-1]
	w += m.pfW * r.Prefetches
	w += m.tlbW * r.TLBWalks
	return units.Watts(w*r.EPIScale) + m.dyn.ClockW
}

// refreshLeakTemp evaluates the leakage temperature factor at the
// package's current temperature.
func (c *Chip) refreshLeakTemp() { c.leakTemp = c.cfg.Power.LeakTempScale(c.therm.TempK()) }

// TickN advances the chip by n 1 ms steps. Each step runs every bound
// thread, accumulates counters, computes true power, advances thermals,
// and takes a sensor sample every 20 ms. The tick loop is
// allocation-free: the power breakdown lives in chip-owned scratch
// buffers and all operating-point coefficients come from caches that
// Set*/Bind/Unbind keep current, so TickN costs exactly n times one tick
// with no warm-up.
//
//ppep:hotpath
func (c *Chip) TickN(n int) {
	for i := 0; i < n; i++ {
		c.tick()
	}
}

// tick is the per-tick path: the full per-core model sweep. Every
// floating-point accumulation below is order-pinned by the golden
// fingerprints (golden_test.go); reordering one changes the traces.
func (c *Chip) tick() {
	if c.tickCount == 0 {
		// First tick of a fresh interval: record the P-states it runs
		// under (controllers change states at interval boundaries).
		c.snapshotVF()
	}
	lat := c.nbLat.Snapshot(c.lastUtil)
	latSib := lat
	latSib.L2ContentionCycles = mem.L2SiblingPenaltyCycles
	var nbAct powertruth.NBActivity
	breakdown := &c.breakdown

	anyAwake := !c.nbGated()
	maxFreq := units.GigaHertz(0)
	r := &c.stepRes

	// The sweep runs core by core in index order, CU by CU: a CU owns
	// the cores cu·CoresPerCU onwards, so no core pays a division to
	// find its CU. Each core reads its CU's operating point from cuOp.
	if c.cuOpStale || c.cfg.BoostEnabled {
		c.refreshCUOps()
	}
	cpc := c.cfg.Topology.CoresPerCU
	for cu := range c.cuOp {
		for i := cu * cpc; i < (cu+1)*cpc; i++ {
			op := &c.cuOp[cu]
			f := op.f
			if f > maxFreq {
				maxFreq = f
			}
			if !c.Busy(i) {
				w := op.haltedW
				if c.cuGated(cu) {
					w = 0 // gated: no clock power at all
				}
				breakdown.CoreDynW[i] = w
				continue
			}
			coreLat := &lat
			if c.cuBusyCores[cu] > 1 {
				// The sibling core of this (busy) core is busy too.
				coreLat = &latSib
			}
			c.threads[i].Step(float64(f), TickS, coreLat, r)
			if c.counterFiles {
				c.counters[i].Accumulate(&r.Events)
			} else {
				c.mux[i].Accumulate(&r.Events, TickS*1000)
			}
			nbAct.L3AccessPS += r.L3Accesses / TickS
			nbAct.DRAMPS += r.DRAMAccesses / TickS
			// The finishing core's power is that of the point it ran the
			// tick at, so it is taken before markIdle can move the point.
			breakdown.CoreDynW[i] = op.coreDynW(r)
			if r.Finished {
				if c.restart[i] {
					c.threads[i].Reset(c.benches[i], float64(c.fTopGHz))
				} else {
					// Later cores this same tick must observe the finished
					// thread as idle (sibling/boost/gating checks), exactly
					// as the per-core Busy() scans used to report it.
					c.markIdle(i)
					c.refreshCUOps()
				}
			}
		}
	}

	if c.tickIdx%int64(arch.PowerSamplePeriodMS) == 0 {
		c.refreshLeakTemp()
	}
	tempScale := c.leakTemp
	for cu := range c.cuOp {
		breakdown.CULeakW[cu] = c.cfg.Power.CULeakageWWith(c.cuOp[cu].leakVolt, tempScale, c.cuGated(cu))
	}
	gatedNB := c.nbGated()
	if gatedNB {
		breakdown.NBDynW = 0
	} else {
		breakdown.NBDynW = c.cfg.Power.NBDynamicWWith(c.nbDyn, nbAct)
	}
	breakdown.NBLeakW = c.cfg.Power.NBLeakageWWith(c.nbLeakVolt, tempScale, gatedNB)
	breakdown.BaseW = c.cfg.Power.BaseW
	breakdown.HousekW = 0
	if anyAwake {
		breakdown.HousekW = c.cfg.Power.HousekeepingDynW(c.cuOp[0].v, maxFreq, c.fTopGHz)
	}

	totalW := breakdown.TotalW()
	c.therm.Step(totalW, TickS)
	// Damped utilization feedback: raw per-tick utilization oscillates
	// (high latency → low demand → low latency → ...); an EMA mirrors
	// the averaging a real memory controller's queues perform.
	utilX := c.cfg.NB.Utilization(nbAct.DRAMPS)
	c.lastUtil = 0.6*c.lastUtil + 0.4*utilX

	// Interval accumulation.
	c.trueSum += float64(totalW)
	c.trueCoreSum += float64(breakdown.CoreTotalW())
	c.trueNBSum += float64(breakdown.NBTotalW())
	for i, w := range breakdown.CoreDynW {
		c.coreDynSum[i] += w
	}
	c.tickCount++
	c.tickIdx++
	c.timeS += TickS
	if c.tickIdx%int64(arch.PowerSamplePeriodMS) == 0 {
		c.sensorSum += c.sensor.Sample(float64(totalW))
		c.sensorN++
	}
	c.ticks.Add(1)
}

// EnableCounterFiles attaches a register-level counter file to every core
// so the MSR device (internal/msr) can expose PERF_CTL/PERF_CTR access.
// Each core's events then feed one counter model, the counter file: the
// multiplexed counters are no longer fed, and ReadIntervalInto returns the
// power, thermal and VF fields with an empty Counters. The register path
// is how such a chip's counts are read.
func (c *Chip) EnableCounterFiles() {
	for i := range c.counters {
		if c.counters[i] == nil {
			c.counters[i] = pmc.NewCounterFile()
		}
	}
	c.counterFiles = true
}

// CounterFile returns core i's register-level counter file, or nil when
// EnableCounterFiles has not been called.
func (c *Chip) CounterFile(core int) *pmc.CounterFile {
	if core < 0 || core >= len(c.counters) {
		return nil
	}
	return c.counters[core]
}

// ReadIntervalInto closes the current measurement interval into a
// caller-owned record: it reads and resets every core's multiplexed
// counters, averages the sensor samples, and assembles the record. Call
// every 200 ticks for the paper's 200 ms cadence. On a chip with
// counter files (EnableCounterFiles) the record's Counters is empty: the
// counts live in the register files.
//
// The record's slices are reused whenever their capacity allows: a
// record handed back on every call allocates only on the first, and a
// zero record gets one exact-capacity allocation per per-core slice
// (TestReadIntervalAllocs pins both). The record must not be read
// concurrently with the chip's tick loop, and a record retained across
// the next call on the same record is overwritten: callers that keep
// history read each interval into a fresh one.
func (c *Chip) ReadIntervalInto(iv *trace.Interval) {
	dur := float64(c.tickCount) * TickS
	iv.TimeS = c.timeS
	iv.DurS = dur
	iv.TempK = float64(c.TempK())
	// The chip reuses intervalVF across intervals; the handed-out
	// record must own its snapshot.
	if cap(iv.PerCoreVF) < len(c.intervalVF) {
		iv.PerCoreVF = make([]arch.VFState, 0, len(c.intervalVF))
	}
	iv.PerCoreVF = append(iv.PerCoreVF[:0], c.intervalVF...)
	if cap(iv.Counters) < len(c.threads) && !c.counterFiles {
		iv.Counters = make([]arch.EventVec, 0, len(c.threads))
	}
	iv.Counters = iv.Counters[:0]
	if cap(iv.Busy) < len(c.threads) {
		iv.Busy = make([]bool, 0, len(c.threads))
	}
	iv.Busy = iv.Busy[:0]
	for i := range c.threads {
		if !c.counterFiles {
			iv.Counters = append(iv.Counters, c.mux[i].ReadInterval(dur*1000))
		}
		iv.Busy = append(iv.Busy, c.Busy(i))
	}
	iv.MeasPowerW = 0
	if c.sensorN > 0 {
		iv.MeasPowerW = c.sensorSum / float64(c.sensorN)
	}
	iv.TruePowerW, iv.TrueCoreW, iv.TrueNBW = 0, 0, 0
	iv.TrueCoreDynW = iv.TrueCoreDynW[:0]
	if c.tickCount > 0 {
		n := float64(c.tickCount)
		iv.TruePowerW = c.trueSum / n
		iv.TrueCoreW = c.trueCoreSum / n
		iv.TrueNBW = c.trueNBSum / n
		if cap(iv.TrueCoreDynW) < len(c.coreDynSum) {
			iv.TrueCoreDynW = make([]float64, 0, len(c.coreDynSum))
		}
		for _, w := range c.coreDynSum {
			iv.TrueCoreDynW = append(iv.TrueCoreDynW, float64(w)/n)
		}
	}
	c.sensorSum, c.sensorN = 0, 0
	c.trueSum, c.trueCoreSum, c.trueNBSum = 0, 0, 0
	for i := range c.coreDynSum {
		c.coreDynSum[i] = 0
	}
	c.tickCount = 0
}
