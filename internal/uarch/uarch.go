// Package uarch is the interval-mechanistic core model of the simulated
// CPU. Each simulation tick it converts a workload phase's per-instruction
// rates into instructions retired, cycles consumed, and true hardware
// event counts, using the same CPI decomposition the paper's performance
// model assumes (Section III):
//
//	CPI(f) = CCPI + MCPI(f)
//	CCPI   = BaseCPI + Mispred/inst · MisBranchPen       (f-invariant)
//	MCPI   = leading-load ns/inst · f                    (∝ f)
//
// Dispatch stalls (E9) are generated as memory stall cycles plus a fixed
// share of core-local stalls, which makes the paper's Observation 2 hold
// structurally; small per-benchmark frequency sensitivities and
// instruction-position-locked jitter provide the measured imperfections.
//
// All stochastic variation is keyed to *instruction position*, not wall
// time, so two runs of the same program at different frequencies see the
// same behaviour at the same point of execution — the property both of
// the paper's observations rely on, and the property real programs have.
package uarch

import (
	"math"

	"ppep/internal/arch"
	"ppep/internal/mem"
	"ppep/internal/workload"
)

// StallShare is the fraction of core-local (non-memory) stall cycles that
// the Dispatch Stalls event observes. The remainder are decode/retire
// inefficiencies invisible to E9.
const StallShare = 0.7

// Core is the execution state of one simulated core running one thread.
type Core struct {
	Bench *workload.Benchmark
	// Done is the count of retired instructions so far.
	Done float64
	// segLen is the instruction length of one jitter segment.
	segLen float64
	// fTop is the platform's top frequency, the reference for the
	// frequency-sensitivity terms.
	fTop float64

	finished bool

	// Tick-loop memos. The jitter knots bounding the current segment
	// are constant within one (segment, σ) and the EPI scale within one
	// phase, so both are cached between ticks.
	jitSeg   int64
	jitSigma float64
	jitOK    bool
	jitM0    [numJitterDims]float64 // exp(σ·hashGauss) at the segment start
	jitM1    [numJitterDims]float64 // exp(σ·hashGauss) at the segment end
	epiPhase *workload.Phase
	epiVal   float64
	// phase is the phase in effect at Done, valid while Done < phaseEnd
	// (phaseBound's bound, which under-approximates the phase's end).
	// Done only grows, so PhaseAt runs again only once a tick crosses
	// the bound; nil until the first Step.
	phase    *workload.Phase
	phaseEnd float64

	// lineA and lineB are the jittered rates as lines in the segment
	// fraction: dimension d's rate (BaseCPI for dimBaseCPI) is
	// lineA[d] + lineB[d]·frac. They hold for one (segment, σ, phase,
	// clock): refreshJitter clears lineOK, and a phase or clock other
	// than linePhase/lineF refreshes them.
	linePhase *workload.Phase
	lineF     float64
	lineOK    bool
	lineA     [numJitterDims]float64
	lineB     [numJitterDims]float64
}

// Reset rebinds the core context to a fresh thread of the benchmark,
// reusing the existing allocation. The simulator's thread-restart path
// runs inside the tick loop, which must stay allocation-free, so
// restarts reset the core slot in place instead of replacing it.
//
//ppep:hotpath
//ppep:inline
func (c *Core) Reset(b *workload.Benchmark, fTopGHz float64) {
	*c = Core{
		Bench:  b,
		segLen: b.Instructions / 200,
		fTop:   fTopGHz,
	}
}

// Finished reports whether the thread has retired all its instructions.
//
//ppep:inline
func (c *Core) Finished() bool { return c.finished }

// TickResult is the outcome of one simulation tick on one core.
type TickResult struct {
	Instructions float64
	Cycles       float64
	CPI          float64
	// Events holds true counts for all twelve Table I events this tick.
	Events arch.EventVec
	// Unobservable activity counts.
	Prefetches float64
	TLBWalks   float64
	// EPIScale is the phase's hidden energy-per-event modulation, a
	// property of the code the core is executing (see powertruth).
	EPIScale float64
	// Memory-system traffic generated this tick.
	L3Accesses   float64 // L2 misses: all reach the NB/L3
	DRAMAccesses float64
	Finished     bool
}

// Step advances the core by dtS seconds at frequency fGHz with the given
// memory latency snapshot, writing the true activity of the tick into r.
// Every field of r is overwritten, so the caller can hand the same
// result back every tick: the tick loop keeps one per chip.
//
//ppep:hotpath
func (c *Core) Step(fGHz, dtS float64, lat *mem.Latencies, r *TickResult) {
	if c.finished || dtS <= 0 {
		*r = TickResult{Finished: c.finished}
		return
	}
	if c.phase == nil || c.Done >= c.phaseEnd {
		c.phase, c.phaseEnd = c.phaseBound()
	}
	phase := c.phase
	frac := c.segmentFrac(phase, fGHz)
	a, b := &c.lineA, &c.lineB
	uops := a[dimUops] + b[dimUops]*frac
	fpu := a[dimFPU] + b[dimFPU]*frac
	icFetch := a[dimICFetch] + b[dimICFetch]*frac
	dcAccess := a[dimDCAccess] + b[dimDCAccess]*frac
	l2Req := a[dimL2Req] + b[dimL2Req]*frac
	branch := a[dimBranch] + b[dimBranch]*frac
	mispred := a[dimMispred] + b[dimMispred]*frac
	l2Miss := a[dimL2Miss] + b[dimL2Miss]*frac
	// Physical floors/relations the jitter must not violate.
	if uops < 1 {
		uops = 1
	}
	if mispred > branch {
		mispred = branch
	}
	if l2Miss > l2Req {
		l2Miss = l2Req
	}
	baseCPI := max(a[dimBaseCPI]+b[dimBaseCPI]*frac, 1/arch.IssueWidth)
	// Shared-L2 contention: an active sibling core stretches every L2
	// request (the FX module's paired-core design).
	baseCPI += l2Req * lat.L2ContentionCycles

	mispredCPI := mispred * arch.MisBranchPen
	llNS := mem.LeadingLoadNSPerInst(l2Miss, phase.L3MissRatio, phase.MLP, lat)
	mcpi := llNS * fGHz // ns/inst × GHz = cycles/inst
	cpi := baseCPI + mispredCPI + mcpi

	inst := fGHz * 1e9 * dtS / cpi
	if remaining := c.Bench.Instructions - c.Done; inst >= remaining {
		inst = remaining
		c.finished = true
	}
	c.Done += inst

	coreStall := StallShare * (baseCPI - 1/arch.IssueWidth)
	ev := &r.Events
	ev.Set(arch.RetiredUOP, uops*inst)
	ev.Set(arch.FPUPipeAssignment, fpu*inst)
	ev.Set(arch.InstructionCacheFetches, icFetch*inst)
	ev.Set(arch.DataCacheAccesses, dcAccess*inst)
	ev.Set(arch.RequestToL2Cache, l2Req*inst)
	ev.Set(arch.RetiredBranches, branch*inst)
	ev.Set(arch.RetiredMispredBranches, mispred*inst)
	ev.Set(arch.L2CacheMisses, l2Miss*inst)
	ev.Set(arch.DispatchStalls, (mcpi+coreStall)*inst)
	ev.Set(arch.CPUClocksNotHalted, cpi*inst)
	ev.Set(arch.RetiredInstructions, inst)
	ev.Set(arch.MABWaitCycles, mcpi*inst)

	r.Instructions = inst
	r.Cycles = cpi * inst
	r.CPI = cpi
	r.Prefetches = phase.PerInst.Prefetch * inst
	r.TLBWalks = phase.PerInst.TLBWalk * inst
	r.EPIScale = c.epiFor(phase)
	r.L3Accesses = l2Miss * inst
	r.DRAMAccesses = l2Miss * phase.L3MissRatio * inst
	r.Finished = c.finished
}

// phaseBound returns the phase in effect at the thread's current
// position and a retired-instruction count strictly before that phase's
// end: for every position d with Done ≤ d < bound, PhaseAt(d) returns
// the phase. The bound deliberately under-approximates the true
// boundary (by a 1e-9 relative guard band that dwarfs the rounding error
// of PhaseAt's arithmetic), so a caller crossing it must re-derive the
// phase rather than assume it ended. It is +Inf when the phase provably
// extends to the end of the run, and degenerate (== Done) within the
// guard band of a boundary.
func (c *Core) phaseBound() (*workload.Phase, float64) {
	phase := c.Bench.PhaseAt(c.Done)
	if len(c.Bench.Phases) == 1 {
		// PhaseAt returns &Phases[0] at every position, loop wraps
		// included.
		return phase, math.Inf(1)
	}
	loops := c.Bench.Loops
	if loops < 1 {
		loops = 1
	}
	perLoop := c.Bench.Instructions / float64(loops)
	if perLoop <= 0 {
		return phase, c.Done
	}
	// The phase ends where the within-loop fraction reaches its
	// cumulative weight (summed in PhaseAt's order), or at the loop
	// wrap for the final phase. Computed in real arithmetic and shrunk
	// by a relative guard band so the bound can never overshoot the
	// boundary PhaseAt actually honours.
	li := math.Floor(c.Done / perLoop)
	acc := 0.0
	for i := range c.Bench.Phases {
		acc += c.Bench.Phases[i].Weight
		if phase == &c.Bench.Phases[i] {
			break
		}
	}
	bound := (li*perLoop + acc*perLoop) * (1 - 1e-9)
	if bound < c.Done {
		bound = c.Done
	}
	return phase, bound
}

// Jitter dimension indices: 0–7 are the Rates event fields, 8 modulates
// BaseCPI.
const (
	dimUops = iota
	dimFPU
	dimICFetch
	dimDCAccess
	dimL2Req
	dimBranch
	dimMispred
	dimL2Miss
	dimBaseCPI

	numJitterDims = dimBaseCPI + 1
)

// segmentFrac returns the thread's fraction through its current jitter
// segment and brings lineA/lineB up to date for it, the phase p and the
// clock fGHz. With no jitter (σ ≤ 0) every knot is exp(0) = 1, the
// fraction is 0 and the lines are the frequency-scaled rates.
func (c *Core) segmentFrac(p *workload.Phase, fGHz float64) float64 {
	seg, frac, sigma := int64(0), 0.0, 0.0
	if p.Noise > 0 && c.segLen > 0 {
		pos := c.Done / c.segLen
		seg = int64(pos)
		frac, sigma = pos-float64(seg), p.Noise
	}
	if !c.jitOK || seg != c.jitSeg || sigma != c.jitSigma {
		c.refreshJitter(seg, sigma)
	}
	if !c.lineOK || p != c.linePhase || fGHz != c.lineF {
		c.refreshLines(p, fGHz)
	}
	return frac
}

// refreshLines recomputes lineA and lineB from the segment's knots, the
// phase's per-instruction rates and the frequency-sensitivity factors
// fs = 1 + FreqSens[d]·df at clock fGHz. Between two knots the jitter
// multiplier is their chord, jitM0·(1−frac) + jitM1·frac, so a jittered
// rate PerInst·fs·multiplier is the line
//
//	A + B·frac,  A = PerInst·fs·jitM0,  B = PerInst·fs·(jitM1 − jitM0)
//
// (BaseCPI has no frequency sensitivity). Prefetch and TLB-walk rates are
// not jittered.
func (c *Core) refreshLines(p *workload.Phase, fGHz float64) {
	df := 0.0
	if c.fTop > 0 {
		df = fGHz/c.fTop - 1
	}
	r := &p.PerInst
	perInst := [dimBaseCPI]float64{r.Uops, r.FPU, r.ICFetch, r.DCAccess, r.L2Req, r.Branch, r.Mispred, r.L2Miss}
	for d, v := range perInst {
		s := v * (1 + c.Bench.FreqSens[d]*df)
		c.lineA[d] = s * c.jitM0[d]
		c.lineB[d] = s * (c.jitM1[d] - c.jitM0[d])
	}
	c.lineA[dimBaseCPI] = p.BaseCPI * c.jitM0[dimBaseCPI]
	c.lineB[dimBaseCPI] = p.BaseCPI * (c.jitM1[dimBaseCPI] - c.jitM0[dimBaseCPI])
	c.linePhase, c.lineF, c.lineOK = p, fGHz, true
}

// refreshJitter recomputes the knots bounding the given segment at
// jitter σ for every dimension. Each segment of segLen instructions has
// a knot at either end carrying exp(σ·g), with g a Gaussian draw keyed by
// (benchmark, dimension, knot index); inside the segment the multiplier
// is the chord between its two knots, which lies above exp(σ·g)
// interpolated in the exponent by at most ≈ σ²·Δg²/8 relative, Δg being
// the draw difference across the segment. A segment spans many ticks, so
// the hashing and the exponentials amortize to near zero. Advancing by
// exactly one segment at the same σ — the common case — reuses the
// trailing knot as the new leading one.
func (c *Core) refreshJitter(seg int64, sigma float64) {
	if c.jitOK && seg == c.jitSeg+1 && sigma == c.jitSigma {
		c.jitM0 = c.jitM1
	} else {
		for d := range c.jitM0 {
			c.jitM0[d] = math.Exp(sigma * hashGauss(c.Bench.Name, d, seg))
		}
	}
	for d := range c.jitM1 {
		c.jitM1[d] = math.Exp(sigma * hashGauss(c.Bench.Name, d, seg+1))
	}
	c.jitSeg, c.jitSigma, c.jitOK = seg, sigma, true
	c.lineOK = false
}

// epiFor memoises epiScale per phase: the phase pointer is stable for the
// benchmark's lifetime and epiScale depends only on the two names, so the
// string concatenation and hashing run once per phase transition instead
// of every tick.
//
//ppep:inline
func (c *Core) epiFor(p *workload.Phase) float64 {
	if c.epiPhase != p {
		c.epiVal = epiScale(c.Bench.Name, p.Name) //ppep:allow hotpath memoized per phase transition, amortized over the phase's ticks
		c.epiPhase = p
	}
	return c.epiVal
}

// epiScale returns the hidden per-phase energy modulation: a stable
// property of (benchmark, phase) in roughly [0.88, 1.12]. It exists only
// in the ground truth — no counter observes it — and is the irreducible
// model error a nine-event regression cannot remove.
func epiScale(bench, phase string) float64 {
	g := hashGauss(bench+"/"+phase+"/epi", 0, 0)
	s := 1 + 0.05*g
	if s < 0.85 {
		s = 0.85
	}
	if s > 1.15 {
		s = 1.15
	}
	return s
}

// hashGauss produces a deterministic ≈N(0,1) draw from (name, dim, seg)
// using three hashed uniforms and the central limit theorem.
func hashGauss(name string, dim int, seg int64) float64 {
	// Inline FNV-1a over (name, dim, seg-LE): byte-identical to feeding
	// fnv.New64a the same sequence, without the hash.Hash64 allocation.
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	x := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		x ^= uint64(name[i])
		x *= fnvPrime64
	}
	x ^= uint64(byte(dim))
	x *= fnvPrime64
	for i := 0; i < 8; i++ {
		x ^= uint64(byte(seg >> (8 * i)))
		x *= fnvPrime64
	}
	var sum float64
	for salt := 0; salt < 3; salt++ {
		// splitmix64 finalizer: decorrelates the draws fully even though
		// the FNV inputs differ by a single counter.
		z := x + 0x9e3779b97f4a7c15*uint64(salt+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		sum += float64(z>>11) / float64(1<<53) // [0,1)
	}
	// Sum of 3 uniforms: mean 1.5, variance 3/12 = 0.25 → σ = 0.5.
	return (sum - 1.5) / 0.5
}
