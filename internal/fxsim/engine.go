package fxsim

import (
	"sync/atomic"

	"ppep/internal/arch"
	"ppep/internal/powertruth"
	"ppep/internal/uarch"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// The batched tick engine: fast-forward over quiescent runs.
//
// PPEP's interval-mechanistic model makes per-tick deltas constant between
// event boundaries: while no thread finishes, no phase boundary is
// crossed, no operating point changes, and the memory-utilization feedback
// is inert, every tick of the reference path computes exactly the numbers
// it computed the tick before. The engine exploits that by running ONE
// reference tick with capture hooks enabled (probeTick), checking a set of
// sufficient quiescence conditions, and then replaying the captured
// per-tick deltas (fastTick) until a guard trips or a mutator invalidates
// the run.
//
// The fast path is bit-exact, not approximately equal: it replays the
// identical floating-point additions in the identical order the reference
// path would have performed (thread Done accumulation, mux accumulation,
// interval sums, the utilization EMA), and it re-runs per tick the pieces
// that genuinely change every tick — the leakage/thermal loop and the
// sensor sampling — using the same cached coefficients the reference path
// reads. See DESIGN.md ("The batched tick engine") for the event-boundary
// taxonomy and the proof obligations.
const probeBackoff = 16

// engine holds the memoized per-tick deltas of a sealed quiescent run plus
// the probe/backoff state machine. All slices are allocated once in init;
// the tick-rate paths are allocation-free.
type engine struct {
	// disabled pins the chip to the reference path for its whole life
	// (Config.ReferenceTick or the ppep_reftick build tag).
	disabled bool
	// neverFast marks configurations whose per-tick state can change
	// without any Chip mutator running: hardware boost reevaluates the
	// operating point from temperature every tick, and register-level
	// counter files must observe every individual Step.
	neverFast bool
	// valid marks a sealed run: fastTick replays it until a guard trips.
	valid bool
	// capturing arms the capture hooks inside the reference tick().
	capturing bool
	// backoff counts reference ticks to run before the next probe, so a
	// workload that never quiesces pays one failed probe every
	// probeBackoff ticks rather than one per tick.
	backoff int

	// Busy set at seal time. busyList[:nBusy] holds the core indices; the
	// per-core capture slices below are indexed by core number.
	nBusy    int
	busyList []int

	// Per-core lookahead and captured per-tick deltas.
	phase       []*workload.Phase
	doneBound   []float64
	inst        []float64
	events      []arch.EventVec
	dram        []float64
	finishedCap []bool

	// Chip-level captured per-tick values.
	dynW       []units.Watts // copy of the sealed tick's CoreDynW
	cuLeakVolt []float64     // per-CU leakage voltage factor
	cuGatedM   []bool        // per-CU gating at seal
	nbGatedM   bool
	utilX      float64 // per-tick utilization sample feeding the EMA
	// replay is the sealed tick's power breakdown over dynW and the
	// chip's leakage scratch (wired up in New). The probe captures its
	// NB dynamic, base and housekeeping terms; fastTick refreshes only
	// the leakage terms, in place.
	replay powertruth.Breakdown

	stats engineCounters
}

// engineCounters are the live tick-execution counters. The fields are
// atomics because the service mode reads them from HTTP handlers
// (/metrics via Daemon.EngineStats) while the sampling goroutine ticks
// the chip; a plain uint64 increment here is a torn-read data race.
type engineCounters struct {
	fastTicks      atomic.Uint64
	referenceTicks atomic.Uint64
	probes         atomic.Uint64
	seals          atomic.Uint64
}

// EngineStats is a plain-value snapshot of how the chip's ticks were
// executed. FastTicks + ReferenceTicks equals the total tick count;
// Probes counts capture ticks (a subset of ReferenceTicks) and Seals the
// probes that produced a valid run.
type EngineStats struct {
	FastTicks      uint64
	ReferenceTicks uint64
	Probes         uint64
	Seals          uint64
}

// EngineStats snapshots the chip's tick-engine counters. Safe to call
// concurrently with a goroutine ticking the chip.
func (c *Chip) EngineStats() EngineStats {
	return EngineStats{
		FastTicks:      c.eng.stats.fastTicks.Load(),
		ReferenceTicks: c.eng.stats.referenceTicks.Load(),
		Probes:         c.eng.stats.probes.Load(),
		Seals:          c.eng.stats.seals.Load(),
	}
}

// init sizes the engine for the chip's topology and latches the
// structural disqualifiers.
func (e *engine) init(cfg *Config, nCores, nCUs int) {
	e.disabled = cfg.ReferenceTick || buildReferenceTick
	e.neverFast = cfg.BoostEnabled
	e.busyList = make([]int, nCores)
	e.phase = make([]*workload.Phase, nCores)
	e.doneBound = make([]float64, nCores)
	e.inst = make([]float64, nCores)
	e.events = make([]arch.EventVec, nCores)
	e.dram = make([]float64, nCores)
	e.finishedCap = make([]bool, nCores)
	e.dynW = make([]units.Watts, nCores)
	e.replay.CoreDynW = e.dynW
	e.cuLeakVolt = make([]float64, nCUs)
	e.cuGatedM = make([]bool, nCUs)
}

// invalidate drops any sealed run and clears the probe backoff: every
// chip mutation is an event boundary, and the state right after one is as
// good a probe point as any.
//
//ppep:hotpath
//ppep:inline
func (e *engine) invalidate() {
	e.valid = false
	e.backoff = 0
}

// armed reports whether the next tick should probe for a quiescent run.
//
//ppep:hotpath
//ppep:inline
func (e *engine) armed() bool {
	return !e.disabled && !e.neverFast && e.backoff == 0
}

// capture records one busy core's tick result during a probe tick.
//
//ppep:hotpath
//ppep:inline
func (e *engine) capture(i int, r *uarch.TickResult) {
	e.inst[i] = r.Instructions
	e.events[i] = r.Events
	e.dram[i] = r.DRAMAccesses
	e.finishedCap[i] = r.Finished
}

// captureChip records the chip-level per-tick values during a probe tick.
//
//ppep:hotpath
//ppep:inline
func (e *engine) captureChip(b *powertruth.Breakdown, utilX float64) {
	e.replay.NBDynW = b.NBDynW
	e.replay.BaseW = b.BaseW
	e.replay.HousekW = b.HousekW
	e.utilX = utilX
}

// probeTick runs one reference tick with capture hooks armed and seals a
// quiescent run when the sufficient conditions hold:
//
//  1. Every busy thread is in a zero-noise phase with a known lower bound
//     on the phase boundary (uarch.Core.StepUntilEvent).
//  2. No thread finished during the capture tick.
//  3. The utilization feedback is inert: either the EMA is at an exact
//     floating-point fixed point, or no busy thread touches DRAM (then
//     CPI is exactly independent of the utilization, because the DRAM
//     latency term is multiplied by the same product that produced the
//     captured zero).
//
// On failure the engine backs off for probeBackoff reference ticks.
//
//ppep:hotpath
func (c *Chip) probeTick() {
	e := &c.eng
	e.nBusy = 0
	for i := range c.threads {
		if !c.Busy(i) {
			continue
		}
		la := c.threads[i].StepUntilEvent()
		if !la.Steady || c.threads[i].Done >= la.DoneBound {
			e.backoff = probeBackoff
			c.tick()
			return
		}
		e.busyList[e.nBusy] = i
		e.nBusy++
		e.phase[i] = la.Phase
		e.doneBound[i] = la.DoneBound
	}

	u0 := c.lastUtil
	e.capturing = true
	c.tick()
	e.capturing = false
	e.stats.probes.Add(1)

	dramZero := true
	for k := 0; k < e.nBusy; k++ {
		i := e.busyList[k]
		if e.finishedCap[i] {
			e.backoff = probeBackoff
			return
		}
		if e.dram[i] != 0 {
			dramZero = false
		}
	}
	if c.lastUtil != u0 && !(e.utilX == 0 && dramZero) {
		e.backoff = probeBackoff
		return
	}

	// Seal: memoize the chip-level per-tick deltas. No thread finished
	// in the capture tick, so cuOp still holds the operating points it
	// ran at.
	copy(e.dynW, c.scratchDyn)
	for cu := 0; cu < c.cfg.Topology.NumCUs; cu++ {
		e.cuLeakVolt[cu] = c.cuOp[cu].leakVolt
		e.cuGatedM[cu] = c.cuGated(cu)
	}
	e.nbGatedM = c.nbGated()
	e.valid = true
	e.stats.seals.Add(1)
}

// fastTick replays one tick of a sealed quiescent run. The guard pass
// runs over every busy thread BEFORE any state is applied, so a trip
// falls back to the reference path with no half-applied tick. The replay
// performs exactly the floating-point operations the reference tick would
// have: identical mux accumulation calls, identical breakdown summation
// order, identical EMA expression, identical sensor-sampling cadence.
//
//ppep:hotpath
func (c *Chip) fastTick() {
	e := &c.eng
	for k := 0; k < e.nBusy; k++ {
		i := e.busyList[k]
		th := &c.threads[i]
		if th.Done >= e.doneBound[i] {
			// The cheap bound is a deliberate under-approximation; the
			// exact condition is pointer identity of the current phase.
			// Re-derive it, and either extend the bound or trip.
			la := th.StepUntilEvent()
			if la.Phase != e.phase[i] || !la.Steady || th.Done >= la.DoneBound {
				e.valid = false
				c.tick()
				return
			}
			e.doneBound[i] = la.DoneBound
		}
		// Mirror of the reference finish clamp in uarch.Core.Step: same
		// expression, same values, so the trip decision is exact.
		if e.inst[i] >= th.Bench.Instructions-th.Done {
			e.valid = false
			c.tick()
			return
		}
	}

	if c.tickCount == 0 {
		c.snapshotVF()
	}
	for k := 0; k < e.nBusy; k++ {
		i := e.busyList[k]
		c.threads[i].Done += e.inst[i]
		c.mux[i].Accumulate(&e.events[i], TickS*1000)
	}

	// Leakage and thermals genuinely change every tick; recompute them
	// from the same cached inputs the reference path reads. The slice
	// re-headers give the prove pass a common length (all three are
	// sized to NumCUs in init), so the sweep carries no bounds checks —
	// same calls, same order, bit-identical results.
	tempScale := c.cfg.Power.LeakTempScale(c.therm.TempK())
	leak := c.scratchLeak[:len(e.cuLeakVolt)]
	gated := e.cuGatedM[:len(e.cuLeakVolt)]
	//ppep:nobc
	for cu, lv := range e.cuLeakVolt {
		leak[cu] = c.cfg.Power.CULeakageWWith(lv, tempScale, gated[cu])
	}
	b := &e.replay
	b.NBLeakW = c.cfg.Power.NBLeakageWWith(c.nbLeakVolt, tempScale, e.nbGatedM)
	totalW := b.TotalW()
	c.therm.Step(totalW, TickS)
	c.lastUtil = 0.6*c.lastUtil + 0.4*e.utilX

	c.trueSum += float64(totalW)
	c.trueCoreSum += float64(b.CoreTotalW())
	c.trueNBSum += float64(b.NBTotalW())
	dynSum := c.coreDynSum[:len(e.dynW)]
	//ppep:nobc
	for i, w := range e.dynW {
		dynSum[i] += w
	}
	c.tickCount++
	c.tickIdx++
	c.timeS += TickS
	if c.tickIdx%int64(arch.PowerSamplePeriodMS) == 0 {
		c.sensorSum += c.sensor.Sample(float64(totalW))
		c.sensorN++
	}
	e.stats.fastTicks.Add(1)
}
