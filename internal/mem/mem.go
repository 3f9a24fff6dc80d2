// Package mem models the north bridge (NB) memory system of the simulated
// processor: the shared L3 cache, the DRAM controller, and the
// bandwidth-dependent queueing that creates memory contention between
// cores. Leading-load latencies produced here are what the MAB Wait Cycles
// event (E12) observes, so the LL-MAB performance model's "memory time"
// (Section III) comes from this package.
package mem

// NB describes the shared north bridge: clocks and latency parameters.
// The L3 and the controller front-end run at the NB clock, so their
// contribution to memory latency scales with NB frequency; the DRAM core
// latency is fixed in wall-clock terms.
type NB struct {
	// FreqGHz is the NB clock (2.2 GHz stock on the FX-8320).
	FreqGHz float64
	// VoltageV is the NB voltage rail (1.175 V stock).
	VoltageV float64

	// L3Cycles is the L3 hit latency in NB cycles.
	L3Cycles float64
	// CtrlCycles is the memory-controller overhead in NB cycles paid by
	// every DRAM access.
	CtrlCycles float64
	// DRAMFixedNS is the DRAM device latency in nanoseconds (row
	// activation + CAS + transfer), independent of any chip clock.
	DRAMFixedNS float64

	// BandwidthGBs is the peak DRAM bandwidth (dual-channel DDR3-1600 ≈
	// 25.6 GB/s; the paper's two DIMMs deliver less in practice).
	BandwidthGBs float64
	// LineBytes is the transfer size per DRAM access.
	LineBytes float64
	// QueueKnee controls how sharply latency inflates as utilization
	// approaches 1 (M/M/1-like: extra = base·k·U/(1−U)).
	QueueKnee float64
	// MaxUtil caps the utilization used in the queueing term so the
	// model stays finite under overload.
	MaxUtil float64
}

// DefaultFX8320NB returns the stock NB configuration.
func DefaultFX8320NB() *NB {
	return &NB{
		FreqGHz:      2.2,
		VoltageV:     1.175,
		L3Cycles:     45,
		CtrlCycles:   40,
		DRAMFixedNS:  52,
		BandwidthGBs: 10.0, // achievable with 2×DDR3 under random-access patterns
		LineBytes:    64,
		QueueKnee:    1.10,
		MaxUtil:      0.94,
	}
}

// L3HitLatencyNS returns the wall-clock latency of an L3 hit.
func (nb *NB) L3HitLatencyNS() float64 {
	return nb.L3Cycles / nb.FreqGHz
}

// DRAMLatencyNS returns the wall-clock latency of a DRAM access at the
// given bandwidth utilization (0..1): controller cycles at the NB clock,
// the fixed DRAM core latency, and queueing delay.
func (nb *NB) DRAMLatencyNS(util float64) float64 {
	base := nb.CtrlCycles/nb.FreqGHz + nb.DRAMFixedNS
	if util < 0 {
		util = 0
	}
	if util > nb.MaxUtil {
		util = nb.MaxUtil
	}
	return base * (1 + nb.QueueKnee*util/(1-util))
}

// Utilization converts an aggregate DRAM request rate (requests/second,
// all cores) into bandwidth utilization.
//
//ppep:hotpath
func (nb *NB) Utilization(dramReqPerSec float64) float64 {
	if dramReqPerSec <= 0 {
		return 0
	}
	bytes := dramReqPerSec * nb.LineBytes
	return bytes / (nb.BandwidthGBs * 1e9)
}

// Latencies is the snapshot of memory latencies a core sees during one
// simulation tick.
type Latencies struct {
	L3NS   float64
	DRAMNS float64
	// L2ContentionCycles is the extra core cycles each L2 request costs
	// when the sibling core of the same compute unit is busy (the FX
	// module design shares the L2 between paired cores). Zero when the
	// sibling is idle.
	L2ContentionCycles float64
}

// L2SiblingPenaltyCycles is the per-L2-request cost of sharing the CU's
// L2 with an active sibling core.
const L2SiblingPenaltyCycles = 7.0

// LatencyParams captures the NB-clock-derived latency terms that are
// invariant while the NB operating point holds, so the simulator's tick
// loop can derive per-tick Latencies without re-dividing by the NB clock
// tens of millions of times per campaign. Recompute after any change to
// the NB's frequency or latency fields.
type LatencyParams struct {
	L3NS       float64 // L3 hit latency at the current NB clock
	DRAMBaseNS float64 // controller + DRAM core latency, unqueued
	QueueKnee  float64
	MaxUtil    float64
}

// LatencyParams returns the hoisted snapshot terms for the current point.
func (nb *NB) LatencyParams() LatencyParams {
	return LatencyParams{
		L3NS:       nb.L3Cycles / nb.FreqGHz,
		DRAMBaseNS: nb.CtrlCycles/nb.FreqGHz + nb.DRAMFixedNS,
		QueueKnee:  nb.QueueKnee,
		MaxUtil:    nb.MaxUtil,
	}
}

// Snapshot computes the per-tick latency pair from the hoisted params; it
// applies exactly the clamping and queueing formula of NB.DRAMLatencyNS.
//
//ppep:hotpath
func (p LatencyParams) Snapshot(util float64) Latencies {
	if util < 0 {
		util = 0
	}
	if util > p.MaxUtil {
		util = p.MaxUtil
	}
	return Latencies{
		L3NS:   p.L3NS,
		DRAMNS: p.DRAMBaseNS * (1 + p.QueueKnee*util/(1-util)),
	}
}

// Snapshot computes the latency pair for the given utilization.
func (nb *NB) Snapshot(util float64) Latencies {
	return nb.LatencyParams().Snapshot(util)
}

// LeadingLoadNSPerInst returns the per-instruction leading-load (exposed
// memory) time for a phase with the given per-instruction L2 miss rate,
// L3 miss ratio, and MLP. This is the quantity whose core-cycle equivalent
// the MAB Wait Cycles counter measures.
//
//ppep:hotpath
func LeadingLoadNSPerInst(l2MissPerInst, l3MissRatio, mlp float64, lat *Latencies) float64 {
	if mlp < 1 {
		mlp = 1
	}
	l3Hits := l2MissPerInst * (1 - l3MissRatio)
	dram := l2MissPerInst * l3MissRatio
	return (l3Hits*lat.L3NS + dram*lat.DRAMNS) / mlp
}
